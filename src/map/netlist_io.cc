#include "map/netlist_io.h"

#include <map>
#include <set>
#include <sstream>

#include "boolean/isop.h"
#include "util/check.h"
#include "util/strings.h"

namespace sm {
namespace {

// Verilog / BLIF identifier sanitation: generated names are already safe,
// but imported ones may not be.
std::string Ident(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "n_");
  return out;
}

std::string VerilogExpr(const Cell& cell) {
  if (cell.IsConstant()) return cell.function().Get(0) ? "1'b1" : "1'b0";
  const Sop cover = Isop(cell.function(),
                         TruthTable::Const0(cell.function().num_vars()));
  if (cover.IsConst0()) return "1'b0";
  std::string out;
  for (std::size_t i = 0; i < cover.NumCubes(); ++i) {
    if (i > 0) out += " | ";
    const Cube& c = cover.cubes()[i];
    if (c.IsUniverse()) return "1'b1";
    out += "(";
    bool first = true;
    for (int v = 0; v < cell.num_pins(); ++v) {
      if (!c.HasVar(v)) continue;
      if (!first) out += " & ";
      first = false;
      if (!c.VarPhase(v)) out += "~";
      out += 'p';
      out += std::to_string(v);
    }
    out += ")";
  }
  return out;
}

}  // namespace

void WriteVerilog(const MappedNetlist& net, std::ostream& out,
                  bool with_primitives) {
  std::set<const Cell*> used;
  for (GateId id = 0; id < net.NumElements(); ++id) {
    if (!net.IsInput(id)) used.insert(net.element(id).cell);
  }

  if (with_primitives) {
    out << "// cell primitives\n";
    for (const Cell* cell : used) {
      out << "module " << Ident(cell->name()) << "(output Y";
      for (int p = 0; p < cell->num_pins(); ++p) out << ", input p" << p;
      out << ");\n  assign Y = " << VerilogExpr(*cell) << ";\nendmodule\n\n";
    }
  }

  out << "module " << Ident(net.name()) << "(";
  bool first = true;
  for (GateId pi : net.inputs()) {
    if (!first) out << ", ";
    first = false;
    out << Ident(net.element(pi).name);
  }
  for (const auto& o : net.outputs()) {
    if (!first) out << ", ";
    first = false;
    out << Ident(o.name);
  }
  out << ");\n";
  for (GateId pi : net.inputs()) {
    out << "  input " << Ident(net.element(pi).name) << ";\n";
  }
  for (const auto& o : net.outputs()) {
    out << "  output " << Ident(o.name) << ";\n";
  }
  for (GateId id = 0; id < net.NumElements(); ++id) {
    if (net.IsInput(id)) continue;
    out << "  wire " << Ident(net.element(id).name) << ";\n";
  }
  for (GateId id = 0; id < net.NumElements(); ++id) {
    if (net.IsInput(id)) continue;
    const auto& e = net.element(id);
    out << "  " << Ident(e.cell->name()) << " u_" << Ident(e.name) << " (.Y("
        << Ident(e.name) << ")";
    for (int p = 0; p < e.cell->num_pins(); ++p) {
      out << ", .p" << p << "("
          << Ident(net.element(e.fanins[static_cast<std::size_t>(p)]).name)
          << ")";
    }
    out << ");\n";
  }
  for (const auto& o : net.outputs()) {
    if (Ident(o.name) != Ident(net.element(o.driver).name)) {
      out << "  assign " << Ident(o.name) << " = "
          << Ident(net.element(o.driver).name) << ";\n";
    }
  }
  out << "endmodule\n";
}

std::string WriteVerilogString(const MappedNetlist& net,
                               bool with_primitives) {
  std::ostringstream ss;
  WriteVerilog(net, ss, with_primitives);
  return ss.str();
}

void WriteMappedBlif(const MappedNetlist& net, std::ostream& out) {
  out << ".model " << net.name() << "\n.inputs";
  for (GateId pi : net.inputs()) out << ' ' << net.element(pi).name;
  out << "\n.outputs";
  for (const auto& o : net.outputs()) out << ' ' << o.name;
  out << '\n';
  for (GateId id = 0; id < net.NumElements(); ++id) {
    if (net.IsInput(id)) continue;
    const auto& e = net.element(id);
    out << ".gate " << e.cell->name();
    for (int p = 0; p < e.cell->num_pins(); ++p) {
      out << " p" << p << '='
          << net.element(e.fanins[static_cast<std::size_t>(p)]).name;
    }
    out << " Y=" << e.name << '\n';
  }
  for (const auto& o : net.outputs()) {
    if (o.name != net.element(o.driver).name) {
      out << ".names " << net.element(o.driver).name << ' ' << o.name
          << "\n1 1\n";
    }
  }
  out << ".end\n";
}

std::string WriteMappedBlifString(const MappedNetlist& net) {
  std::ostringstream ss;
  WriteMappedBlif(net, ss);
  return ss.str();
}

MappedNetlist ReadMappedBlif(std::istream& in, const Library& lib) {
  std::string model = "top";
  std::vector<std::string> input_names;
  std::vector<std::string> output_names;
  struct RawGate {
    const Cell* cell;
    std::vector<std::string> pin_nets;  // by pin index
    std::string out_net;
  };
  std::map<std::string, RawGate> gate_of;       // output net -> gate
  std::map<std::string, std::string> alias_of;  // buffer .names pairs

  std::string line;
  std::string pending_alias_src;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto tokens = SplitWhitespace(line);
    if (tokens.empty()) continue;
    if (!pending_alias_src.empty()) {
      if (tokens.size() != 2 || tokens[0] != "1" || tokens[1] != "1") {
        throw ParseError("mapped BLIF: only buffer .names are supported");
      }
      pending_alias_src.clear();
      continue;
    }
    if (tokens[0] == ".model") {
      if (tokens.size() >= 2) model = tokens[1];
    } else if (tokens[0] == ".inputs") {
      input_names.insert(input_names.end(), tokens.begin() + 1, tokens.end());
    } else if (tokens[0] == ".outputs") {
      output_names.insert(output_names.end(), tokens.begin() + 1,
                          tokens.end());
    } else if (tokens[0] == ".gate") {
      if (tokens.size() < 3) throw ParseError("mapped BLIF: malformed .gate");
      const Cell* cell = lib.ByName(tokens[1]);
      if (cell == nullptr) {
        throw ParseError("mapped BLIF: unknown cell " + tokens[1]);
      }
      RawGate g{cell,
                std::vector<std::string>(
                    static_cast<std::size_t>(cell->num_pins())),
                ""};
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const auto kv = SplitChar(tokens[i], '=');
        if (kv.size() != 2) {
          throw ParseError("mapped BLIF: bad pin binding " + tokens[i]);
        }
        if (kv[0] == "Y") {
          g.out_net = kv[1];
        } else if (kv[0].size() >= 2 && kv[0][0] == 'p') {
          const int pin = std::stoi(kv[0].substr(1));
          if (pin < 0 || pin >= cell->num_pins()) {
            throw ParseError("mapped BLIF: pin out of range in " + tokens[i]);
          }
          g.pin_nets[static_cast<std::size_t>(pin)] = kv[1];
        } else {
          throw ParseError("mapped BLIF: unknown pin " + kv[0]);
        }
      }
      if (g.out_net.empty()) {
        throw ParseError("mapped BLIF: .gate without output binding");
      }
      for (int p = 0; p < cell->num_pins(); ++p) {
        if (g.pin_nets[static_cast<std::size_t>(p)].empty()) {
          throw ParseError("mapped BLIF: unbound pin p" + std::to_string(p));
        }
      }
      if (!gate_of.emplace(g.out_net, g).second) {
        throw ParseError("mapped BLIF: net driven twice: " + g.out_net);
      }
    } else if (tokens[0] == ".names") {
      if (tokens.size() != 3) {
        throw ParseError("mapped BLIF: only buffer .names are supported");
      }
      alias_of[tokens[2]] = tokens[1];
      pending_alias_src = tokens[1];
    } else if (tokens[0] == ".end") {
      break;
    } else {
      throw ParseError("mapped BLIF: unsupported construct " + tokens[0]);
    }
  }

  MappedNetlist net(model);
  std::map<std::string, GateId> id_of;
  for (const std::string& name : input_names) {
    id_of.emplace(name, net.AddInput(name));
  }
  // Elaborate gates in dependency order.
  std::vector<std::string> stack;
  auto resolve_alias = [&alias_of](std::string n) {
    std::size_t hops = 0;
    while (alias_of.count(n) != 0) {
      n = alias_of.at(n);
      if (++hops > alias_of.size()) {
        throw ParseError("mapped BLIF: alias cycle through " + n);
      }
    }
    return n;
  };
  auto elaborate = [&](const std::string& root) {
    stack.push_back(resolve_alias(root));
    std::size_t guard = 0;
    while (!stack.empty()) {
      SM_REQUIRE(++guard < 10'000'000, "mapped BLIF: cyclic netlist");
      const std::string sig = stack.back();
      if (id_of.count(sig) != 0) {
        stack.pop_back();
        continue;
      }
      const auto it = gate_of.find(sig);
      if (it == gate_of.end()) {
        throw ParseError("mapped BLIF: undriven net " + sig);
      }
      bool ready = true;
      for (const std::string& n : it->second.pin_nets) {
        const std::string r = resolve_alias(n);
        if (id_of.count(r) == 0) {
          stack.push_back(r);
          ready = false;
        }
      }
      if (!ready) continue;
      std::vector<GateId> fanins;
      for (const std::string& n : it->second.pin_nets) {
        fanins.push_back(id_of.at(resolve_alias(n)));
      }
      id_of.emplace(sig, net.AddGate(it->second.cell, fanins, sig));
      stack.pop_back();
    }
  };
  for (const std::string& out_name : output_names) {
    elaborate(out_name);
    net.AddOutput(out_name, id_of.at(resolve_alias(out_name)));
  }
  net.CheckInvariants();
  return net;
}

MappedNetlist ReadMappedBlifString(const std::string& text,
                                   const Library& lib) {
  std::istringstream ss(text);
  return ReadMappedBlif(ss, lib);
}

std::string WriteDotString(const MappedNetlist& net) {
  std::ostringstream out;
  out << "digraph \"" << net.name() << "\" {\n  rankdir=LR;\n";
  for (GateId id = 0; id < net.NumElements(); ++id) {
    const auto& e = net.element(id);
    if (e.cell == nullptr) {
      out << "  n" << id << " [label=\"" << e.name
          << "\", shape=triangle];\n";
    } else {
      out << "  n" << id << " [label=\"" << e.name << "\\n"
          << e.cell->name() << "\", shape=box];\n";
    }
    for (GateId f : e.fanins) {
      out << "  n" << f << " -> n" << id << ";\n";
    }
  }
  for (std::size_t i = 0; i < net.NumOutputs(); ++i) {
    out << "  o" << i << " [label=\"" << net.output(i).name
        << "\", shape=doublecircle];\n  n" << net.output(i).driver << " -> o"
        << i << ";\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace sm
