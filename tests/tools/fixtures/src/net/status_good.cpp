// Fixture: disciplined Status handling — zero findings.
#include "net/conn.hpp"

namespace fixture {

struct Conn {
  std::vector<std::shared_ptr<sim::WaitRecord>> waiters_;  // guarded storage

  int guarded() {
    auto r = recv_some(1);
    if (!r.is_ok()) return -1;
    return r.value();
  }

  Status propagates() { return send_all(1); }

  void wake(sim::Engine* engine, std::shared_ptr<sim::WaitRecord> rec) {
    engine->schedule_after(10, rec->handle, sim::alive_guard(rec));
  }
};

}  // namespace fixture
