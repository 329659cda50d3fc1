// Reference-counted kernel-side object model (Symbian's CObject).
//
// CObjects are shared via open/close reference counting; destroying one
// whose access count is still nonzero panics with E32USER-CBase 33.
#pragma once

#include <string>

namespace symfail::symbos {

class ExecContext;

/// Reference-counted object.  Access count starts at zero; `open` and
/// `close` adjust it; `destroy` checks the invariant.
class CObjectModel {
public:
    explicit CObjectModel(std::string name) : name_{std::move(name)} {}

    void open() { ++accessCount_; }

    /// Decrements the access count; returns true when it reached zero and
    /// the object may be destroyed.  Closing below zero is clamped (the
    /// real CObject asserts in debug builds only).
    bool close();

    /// Verifies the object is destroyable; a nonzero access count panics
    /// with E32USER-CBase 33.  Call before deleting the object.
    void destroyCheck(const ExecContext& ctx) const;

    [[nodiscard]] int accessCount() const { return accessCount_; }

private:
    std::string name_;
    int accessCount_{0};
};

}  // namespace symfail::symbos
