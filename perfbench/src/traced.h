// The traced run: replays a workload's inputs with spans around the calls
// into each layer and reports the per-layer metrics.
#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <cstdint>
#include <string>

#include "workloads.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;
  std::string trace_out;  // Chrome-trace JSON of the traced run
  uint32_t nproc = 1;
};

int RunTraced(const Config& cfg, const WorkloadSpec& w);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
