// The technology-independent networks whose subject graphs
// Decompose.SubjectGraphsMatchThePins pins, shared by the tests that sweep
// that set (decomposition pins, the mapper's cut-function oracle).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "harness/flow.h"
#include "liblib/lsi10k.h"
#include "network/network.h"
#include "suite/paper_suite.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sm {

// Random network whose logic nodes have lo..hi distinct fanins and 1-4
// random cubes, plus one live and one dead constant node.
inline Network RandomWideNetwork(std::uint64_t seed, int lo, int hi) {
  Rng rng(seed);
  Network net(IndexedName("wide", static_cast<long long>(seed)));
  std::vector<NodeId> pool;
  for (int i = 0; i < 26; ++i) {
    pool.push_back(net.AddInput(IndexedName("i", i)));
  }
  const NodeId one = net.AddNode({}, Sop::Const1(0));
  net.AddNode({}, Sop::Const0(0));
  for (int g = 0; g < 12; ++g) {
    const int k = static_cast<int>(rng.Range(lo, hi));
    std::vector<NodeId> fanins;
    for (std::size_t i : rng.Sample(pool.size(), static_cast<std::size_t>(k))) {
      fanins.push_back(pool[i]);
    }
    Sop f(k);
    const int cubes = static_cast<int>(rng.Range(1, 4));
    for (int c = 0; c < cubes; ++c) {
      Cube cube;
      for (int v = 0; v < k; ++v) {
        if (rng.Chance(0.35)) cube = cube.WithLiteral(v, rng.Chance(0.5));
      }
      if (cube.IsUniverse()) cube = Cube::Literal(0, rng.Chance(0.5));
      f.AddCube(cube);
    }
    pool.push_back(net.AddNode(fanins, f));
  }
  for (int o = 0; o < 3; ++o) {
    net.AddOutput(IndexedName("o", o),
                  pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
  }
  net.AddOutput("one", one);
  return net;
}


// In order: the 20 Table-2 and 5 Table-1 TI networks, their 25 masking
// networks, and two random networks each of 1-4, 7-12 and 21-24 fanins a
// node (56 networks).
inline std::vector<Network> PinnedSubjectSources() {
  std::vector<Network> nets = GenerateCircuits(Table2Circuits(), 1);
  for (Network& n : GenerateCircuits(Table1Circuits(), 1)) {
    nets.push_back(std::move(n));
  }
  const Library lib = Lsi10kLike();
  const std::size_t num_ti = nets.size();
  for (std::size_t i = 0; i < num_ti; ++i) {
    nets.push_back(RunMaskingFlow(nets[i], lib).masking.network);
  }
  const std::pair<int, int> bands[] = {{1, 4}, {7, 12}, {21, 24}};
  for (const auto& [lo, hi] : bands) {
    const std::uint64_t seed = 100 * static_cast<std::uint64_t>(lo);
    nets.push_back(RandomWideNetwork(seed, lo, hi));
    nets.push_back(RandomWideNetwork(seed + 1, lo, hi));
  }
  return nets;
}

}  // namespace sm
