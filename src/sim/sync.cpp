#include "sim/sync.hpp"

namespace vmstorm::sim {

Task<void> when_all(Engine& engine, std::vector<Task<void>> tasks) {
  std::vector<JoinHandle> handles;
  handles.reserve(tasks.size());
  for (auto& t : tasks) handles.push_back(engine.spawn(std::move(t)));
  tasks.clear();
  for (auto& h : handles) co_await h.join();
}

}  // namespace vmstorm::sim
