#include "network/network.h"

#include <algorithm>

#include "util/check.h"
#include "util/strings.h"

namespace sm {

Network::Network(std::string name) : name_(std::move(name)) {}

NodeId Network::AddInput(std::string name) {
  SM_REQUIRE(!name.empty(), "inputs must be named");
  SM_REQUIRE(by_name_.find(name) == by_name_.end(),
             "duplicate node name: " << name);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  by_name_.emplace(name, id);
  nodes_.push_back(Node{NodeKind::kInput, std::move(name), {}, Sop(0)});
  inputs_.push_back(id);
  fanouts_valid_ = false;
  return id;
}

NodeId Network::AddNode(std::vector<NodeId> fanins, Sop function,
                        std::string name) {
  SM_REQUIRE(static_cast<int>(fanins.size()) == function.num_vars(),
             "fanin count must match function variable count");
  const NodeId id = static_cast<NodeId>(nodes_.size());
  for (NodeId f : fanins) {
    SM_REQUIRE(f < id, "fanins must be previously created nodes (acyclic)");
  }
  if (name.empty()) name = IndexedName("n", id);
  SM_REQUIRE(by_name_.find(name) == by_name_.end(),
             "duplicate node name: " << name);
  by_name_.emplace(name, id);
  nodes_.push_back(Node{NodeKind::kLogic, std::move(name), std::move(fanins),
                        std::move(function)});
  fanouts_valid_ = false;
  return id;
}

void Network::AddOutput(std::string name, NodeId driver) {
  SM_REQUIRE(driver < nodes_.size(), "output driver does not exist");
  SM_REQUIRE(!name.empty(), "outputs must be named");
  outputs_.push_back(Output{std::move(name), driver});
}

const Network::Node& Network::node(NodeId id) const {
  SM_REQUIRE(id < nodes_.size(), "node id out of range: " << id);
  return nodes_[id];
}

const Sop& Network::function(NodeId id) const {
  const Node& n = node(id);
  SM_REQUIRE(n.kind == NodeKind::kLogic, "inputs have no function");
  return n.function;
}

void Network::SetFunction(NodeId id, Sop function) {
  Node& n = nodes_.at(id);
  SM_REQUIRE(n.kind == NodeKind::kLogic, "cannot set function on an input");
  SM_REQUIRE(function.num_vars() == static_cast<int>(n.fanins.size()),
             "function width must match fanin count");
  n.function = std::move(function);
}

void Network::SetNode(NodeId id, std::vector<NodeId> fanins, Sop function) {
  Node& n = nodes_.at(id);
  SM_REQUIRE(n.kind == NodeKind::kLogic, "cannot rewire an input");
  SM_REQUIRE(static_cast<int>(fanins.size()) == function.num_vars(),
             "fanin count must match function variable count");
  for (NodeId f : fanins) {
    SM_REQUIRE(f < id, "rewired fanins must precede the node (acyclic)");
  }
  n.fanins = std::move(fanins);
  n.function = std::move(function);
  fanouts_valid_ = false;
}

void Network::SetOutputDriver(std::size_t output_index, NodeId driver) {
  SM_REQUIRE(output_index < outputs_.size(), "output index out of range");
  SM_REQUIRE(driver < nodes_.size(), "output driver does not exist");
  outputs_[output_index].driver = driver;
}

const Network::Output& Network::output(std::size_t i) const {
  SM_REQUIRE(i < outputs_.size(), "output index out of range");
  return outputs_[i];
}

int Network::InputIndex(NodeId id) const {
  // Input ids ascend: AddInput appends the next node id.
  const auto it = std::lower_bound(inputs_.begin(), inputs_.end(), id);
  return it != inputs_.end() && *it == id
             ? static_cast<int>(it - inputs_.begin())
             : -1;
}

const std::vector<std::vector<NodeId>>& Network::Fanouts() const {
  if (!fanouts_valid_) {
    fanouts_.assign(nodes_.size(), {});
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      for (NodeId f : nodes_[id].fanins) fanouts_[f].push_back(id);
    }
    fanouts_valid_ = true;
  }
  return fanouts_;
}

NodeId Network::FindByName(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidNode : it->second;
}

void Network::CheckInvariants() const {
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.kind == NodeKind::kInput) {
      SM_CHECK(n.fanins.empty(), "input " << n.name << " has fanins");
    } else {
      SM_CHECK(static_cast<int>(n.fanins.size()) == n.function.num_vars(),
               "node " << n.name << " fanin/function width mismatch");
      for (NodeId f : n.fanins) {
        SM_CHECK(f < id, "node " << n.name << " has a forward fanin");
      }
    }
  }
  for (const Output& o : outputs_) {
    SM_CHECK(o.driver < nodes_.size(),
             "output " << o.name << " driver out of range");
  }
}

}  // namespace sm
