// Shared driver for the multi-circuit table benchmarks (table1_spcf,
// table2_overhead, micro_bdd): a tiny CLI parser, the thread-count parser
// every front-end's --threads flag shares, and a deterministic parallel map
// over circuits.
//
// Determinism contract, mirroring the Monte-Carlo engine: every
// circuit is an independent task with its own BddManager, each task writes
// only its own result slot, and all printing happens serially afterwards in
// index order. Table output is therefore byte-identical at any thread count
// — provided wall-clock times go to stderr or the JSON dump, never stdout.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace sm {

struct BenchOptions {
  int threads = 1;        // --threads=N
  bool smoke = false;     // --smoke: reduced circuit list for CI
  bool reorder = false;   // --reorder / --no-reorder: sifting in the flows
  std::string json_path;  // --json=PATH: machine-readable result dump
};

// Parses --threads=N, --smoke, --reorder/--no-reorder and --json=PATH;
// throws std::invalid_argument on an unknown flag or a malformed value.
BenchOptions ParseBenchArgs(int argc, char** argv);

// Parses a worker-thread count: a decimal integer in [1, 1024]. Throws
// std::invalid_argument otherwise. Every --threads flag goes through it.
int ParseThreadCount(const std::string& value);

// Runs row(i) for every i in [0, n) across `threads` pool workers and
// returns the results in index order. Row must be default-constructible and
// move-assignable. Exceptions are rethrown in index order (first failing
// row wins), matching the serial loop's behaviour.
template <typename Fn>
auto ParallelRows(std::size_t n, int threads, Fn&& row)
    -> std::vector<decltype(row(std::size_t{0}))> {
  using Row = decltype(row(std::size_t{0}));
  std::vector<Row> rows(n);
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) rows[i] = row(i);
    return rows;
  }
  ThreadPool pool(threads);
  pool.ParallelFor(0, n, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) rows[i] = row(i);
  });
  return rows;
}

}  // namespace sm
