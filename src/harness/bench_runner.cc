#include "harness/bench_runner.h"

#include <cstdlib>

#include "util/check.h"

namespace sm {

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
    } else if (arg == "--batch") {
      o.batch = true;
    } else if (arg == "--no-batch") {
      o.batch = false;
    } else if (arg.rfind("--threads=", 0) == 0) {
      const std::string value = arg.substr(10);
      char* end = nullptr;
      const long n = std::strtol(value.c_str(), &end, 10);
      SM_REQUIRE(end != nullptr && *end == '\0' && !value.empty() && n >= 1 &&
                     n <= 1024,
                 "bad --threads value: " << value);
      o.threads = static_cast<int>(n);
    } else if (arg.rfind("--json=", 0) == 0) {
      o.json_path = arg.substr(7);
      SM_REQUIRE(!o.json_path.empty(), "--json needs a path");
    } else {
      SM_REQUIRE(false, "unknown benchmark flag: "
                            << arg
                            << " (expected --threads=N, --json=PATH, --smoke, "
                               "--reorder, --no-reorder, --batch, "
                               "--no-batch)");
    }
  }
  return o;
}

}  // namespace sm
