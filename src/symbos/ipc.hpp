// Client/server message passing — the microkernel's service access path.
//
// All Symbian system services are servers; clients send messages through
// the kernel and the server completes them.  The model reproduces:
//   * completing a request through a null message pointer  -> USER 70
//   * sending to a dead server                              -> KErrServerTerminated
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "symbos/kernel.hpp"

namespace symfail::symbos {

/// A request in flight from a client to a server (RMessage).  Handlers
/// receive a reference and must call `complete` exactly once.
class Message {
public:
    [[nodiscard]] int op() const { return op_; }
    [[nodiscard]] const std::string& payload() const { return payload_; }
    [[nodiscard]] bool completed() const { return completed_; }
    [[nodiscard]] int result() const { return result_; }

    /// Completes the request (RMessagePtr2::Complete).  Completing through
    /// a null message pointer — modelled as a second completion or a
    /// completion of a detached message — panics with USER 70.
    void complete(const ExecContext& ctx, int code);

    /// Builds a message that was never attached to a request — a null
    /// RMessagePtr.  Completing it panics USER 70.
    [[nodiscard]] static Message orphan(int op) {
        Message m{op, {}};
        m.attached_ = false;
        return m;
    }

private:
    friend class Server;
    Message(int op, std::string payload) : op_{op}, payload_{std::move(payload)} {}
    int op_;
    std::string payload_;  ///< Request body: no modelled server reads it, the IPC tests do.
    bool completed_{false};
    bool attached_{true};
    int result_{0};
};

/// A server process endpoint.  `sendReceive` runs the handler in the host
/// process's context (kernel message passing is modelled as a synchronous
/// kernel-mediated call, which matches Symbian's blocking SendReceive).
class Server {
public:
    using Handler = std::function<void(ExecContext&, Message&)>;

    Server(Kernel& kernel, ProcessId host, std::string name);

    void setHandler(Handler handler) { handler_ = std::move(handler); }

    /// Client call.  Returns the completion code, KErrServerTerminated if
    /// the host process is dead, or KErrGeneral if the handler returned
    /// without completing the message (a hung request, surfaced as an
    /// error so the model stays synchronous).
    int sendReceive(int op, std::string payload = {});

    [[nodiscard]] std::uint64_t messagesServed() const { return served_; }

private:
    Kernel* kernel_;
    ProcessId host_;
    std::string name_;
    Handler handler_;
    std::uint64_t served_{0};
};

}  // namespace symfail::symbos
