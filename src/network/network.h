// Technology-independent logic network.
//
// A Network is a DAG of nodes; each logic node carries a sum-of-products
// function over its fanins (bounded to kMaxCubeVars, in practice 10-15 — the
// representation the paper's Sec. 4 synthesis operates on). Primary inputs
// are nodes of kind kInput; primary outputs are named references to driver
// nodes.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "boolean/sop.h"

namespace sm {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = ~NodeId{0};

enum class NodeKind : std::uint8_t { kInput, kLogic };

class Network {
 public:
  struct Node {
    NodeKind kind;
    std::string name;
    std::vector<NodeId> fanins;
    Sop function;  // over fanins; meaningful only for kLogic
  };

  struct Output {
    std::string name;
    NodeId driver;
  };

  explicit Network(std::string name);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  NodeId AddInput(std::string name);
  // `function` is over `fanins` in order: SOP variable i == fanins[i].
  NodeId AddNode(std::vector<NodeId> fanins, Sop function,
                 std::string name = "");
  void AddOutput(std::string name, NodeId driver);

  std::size_t NumNodes() const { return nodes_.size(); }
  std::size_t NumInputs() const { return inputs_.size(); }
  std::size_t NumOutputs() const { return outputs_.size(); }
  std::size_t NumLogicNodes() const { return nodes_.size() - inputs_.size(); }

  const Node& node(NodeId id) const;
  NodeKind kind(NodeId id) const { return node(id).kind; }
  const std::vector<NodeId>& fanins(NodeId id) const {
    return node(id).fanins;
  }
  const Sop& function(NodeId id) const;
  const std::string& node_name(NodeId id) const { return node(id).name; }

  // Replaces the function of a logic node (fanin list unchanged).
  void SetFunction(NodeId id, Sop function);
  // Rewires a logic node to new fanins with a new function.
  void SetNode(NodeId id, std::vector<NodeId> fanins, Sop function);
  void SetOutputDriver(std::size_t output_index, NodeId driver);

  const std::vector<NodeId>& inputs() const { return inputs_; }
  const std::vector<Output>& outputs() const { return outputs_; }
  const Output& output(std::size_t i) const;

  // Position of `id` in inputs(), or -1; a binary search (O(log n)).
  int InputIndex(NodeId id) const;

  // Fanout adjacency, rebuilt on demand after mutations.
  const std::vector<std::vector<NodeId>>& Fanouts() const;
  void InvalidateFanouts() { fanouts_valid_ = false; }

  // Looks a node up by name; kInvalidNode when absent.
  NodeId FindByName(const std::string& name) const;

  // Structural sanity: fanin counts match function widths, DAG is acyclic
  // (constructive insertion guarantees it), names unique. Throws on failure.
  void CheckInvariants() const;

 private:
  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<Output> outputs_;
  std::unordered_map<std::string, NodeId> by_name_;
  mutable std::vector<std::vector<NodeId>> fanouts_;
  mutable bool fanouts_valid_ = false;
};

}  // namespace sm
