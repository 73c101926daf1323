#include "harness/bench_runner.h"

#include "util/check.h"
#include "util/strings.h"

namespace sm {

int ParseThreadCount(const std::string& value) {
  return ParseBoundedInt("--threads", value, 1, 1024);
}

BenchOptions ParseBenchArgs(int argc, char** argv) {
  BenchOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--reorder") {
      o.reorder = true;
    } else if (arg == "--no-reorder") {
      o.reorder = false;
    } else if (arg.rfind("--threads=", 0) == 0) {
      o.threads = ParseThreadCount(arg.substr(10));
    } else if (arg.rfind("--json=", 0) == 0) {
      o.json_path = arg.substr(7);
      SM_REQUIRE(!o.json_path.empty(), "--json needs a path");
    } else {
      SM_REQUIRE(false, "unknown benchmark flag: "
                            << arg
                            << " (expected --threads=N, --json=PATH, --smoke, "
                               "--reorder, --no-reorder)");
    }
  }
  return o;
}

}  // namespace sm
