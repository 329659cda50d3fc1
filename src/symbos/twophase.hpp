// Two-phase construction — Symbian's leak-safe construction protocol.
//
// Objects with dynamic extensions are built in two phases: a first phase
// that cannot fail, then a ConstructL() that allocates and may leave.
// The NewLC idiom pushes the half-built object on the cleanup stack before
// running the second phase, so a leave frees it (the paper's Section 2
// lists this among Symbian's memory-management mechanisms).
//
// `TwoPhase<T>` packages the idiom for model types: T needs a nothrow
// first-phase constructor and a `constructL(ExecContext&)` second phase.
#pragma once

#include <memory>
#include <utility>

#include "symbos/cleanup.hpp"
#include "symbos/kernel.hpp"

namespace symfail::symbos {

/// Builds a T under the NewLC protocol: the half-built object sits on the
/// cleanup stack while `constructL` runs; on a leave it is destroyed, on
/// success it is popped and returned.
template <typename T, typename... Args>
[[nodiscard]] std::unique_ptr<T> newL(ExecContext& ctx, Args&&... args) {
    auto object = std::make_unique<T>(std::forward<Args>(args)...);  // phase one
    // Hand ownership to the cleanup stack for phase two once pushL returns
    // (until then `object` frees it, as Symbian's PushL does on failure): a
    // leave runs the op (destroying the half-built object); success pops it
    // without running (CleanupStack::pop), exactly like Pop() after NewLC.
    T* raw = object.get();
    ctx.cleanupStack().pushL(ctx, [raw]() { delete raw; });
    (void)object.release();
    raw->constructL(ctx);  // phase two: may leave
    ctx.cleanupStack().pop(ctx);
    return std::unique_ptr<T>{raw};
}

}  // namespace symfail::symbos
