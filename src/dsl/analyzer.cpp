#include "dsl/analyzer.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

namespace stab::dsl {

namespace {

class AnalyzeError : public std::runtime_error {
 public:
  explicit AnalyzeError(const std::string& what) : std::runtime_error(what) {}
};

class Analyzer {
 public:
  explicit Analyzer(const AnalyzeContext& ctx) : ctx_(ctx) {
    if (!ctx_.topology) throw AnalyzeError("analyzer: topology is required");
    if (!ctx_.resolve_type)
      throw AnalyzeError("analyzer: type resolver is required");
    if (ctx_.self >= ctx_.topology->num_nodes())
      throw AnalyzeError("analyzer: self node out of range");
  }

  Resolved run(const Expr& root) {
    Resolved out;
    out.root = resolve_call_expr(root);
    out.node_lists = std::move(lists_);
    std::set<NodeId> nodes;
    for (const auto& list : out.node_lists) nodes.insert(list.begin(), list.end());
    out.referenced_nodes.assign(nodes.begin(), nodes.end());
    out.referenced_types.assign(types_.begin(), types_.end());
    return out;
  }

 private:
  // --- set resolution -------------------------------------------------------

  std::vector<NodeId> resolve_atom(const SetAtom& atom) {
    const Topology& topo = *ctx_.topology;
    switch (atom.kind) {
      case SetKind::kAllNodes:
        return topo.all_nodes();
      case SetKind::kMyAzNodes:
        return topo.nodes_in_az(topo.az_of(ctx_.self));
      case SetKind::kMyNode:
        return {ctx_.self};
      case SetKind::kNodeIndex: {
        // $N is the N-th (1-based) entry of the configured node list
        // (paper §III-C: the node "learns its own rank in the overall
        // list"). When node names are numeric (the paper's style), name and
        // rank coincide.
        if (atom.index < 1 ||
            atom.index > static_cast<int64_t>(topo.num_nodes()))
          throw AnalyzeError("unknown WAN node index $" +
                             std::to_string(atom.index));
        return {static_cast<NodeId>(atom.index - 1)};
      }
      case SetKind::kNodeName: {
        auto id = topo.find_node(atom.name);
        if (!id) throw AnalyzeError("unknown WAN node $WNODE_" + atom.name);
        return {*id};
      }
      case SetKind::kAz: {
        if (!topo.has_az(atom.name))
          throw AnalyzeError("unknown availability zone $AZ_" + atom.name);
        return topo.nodes_in_az(atom.name);
      }
    }
    throw AnalyzeError("unreachable set kind");
  }

  std::vector<NodeId> resolve_set(const SetExpr& set) {
    if (set.terms.empty()) throw AnalyzeError("empty set expression");
    std::vector<NodeId> acc = resolve_term(set.terms[0]);
    for (size_t i = 1; i < set.terms.size(); ++i) {
      std::vector<NodeId> minus = resolve_term(set.terms[i]);
      std::erase_if(acc, [&](NodeId n) {
        return std::find(minus.begin(), minus.end(), n) != minus.end();
      });
    }
    return acc;
  }

  std::vector<NodeId> resolve_term(const SetTerm& term) {
    if (std::holds_alternative<SetAtom>(term.node))
      return resolve_atom(std::get<SetAtom>(term.node));
    return resolve_set(*std::get<std::unique_ptr<SetExpr>>(term.node));
  }

  // Lists are sets: the control plane's crossing counts take each listed
  // node for one item (Program::bind).
  uint32_t intern_list(std::vector<NodeId> list) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    for (uint32_t i = 0; i < lists_.size(); ++i)
      if (lists_[i] == list) return i;
    lists_.push_back(std::move(list));
    return static_cast<uint32_t>(lists_.size() - 1);
  }

  StabilityTypeId resolve_type(const std::string& suffix) {
    const std::string& name = suffix.empty() ? kReceived : suffix;
    auto id = ctx_.resolve_type(name);
    if (!id) throw AnalyzeError("unknown stability type ." + name);
    types_.insert(*id);
    return *id;
  }

  // --- arithmetic folding ---------------------------------------------------

  int64_t fold_arith(const Expr& e) {
    if (std::holds_alternative<IntLit>(e.node))
      return std::get<IntLit>(e.node).value;
    if (std::holds_alternative<SizeOf>(e.node))
      return static_cast<int64_t>(
          resolve_set(std::get<SizeOf>(e.node).set).size());
    if (std::holds_alternative<Arith>(e.node)) {
      const Arith& a = std::get<Arith>(e.node);
      int64_t lhs = fold_arith(*a.lhs);
      int64_t rhs = fold_arith(*a.rhs);
      switch (a.op) {
        case ArithOp::kAdd:
          return lhs + rhs;
        case ArithOp::kSub:
          return lhs - rhs;
        case ArithOp::kMul:
          return lhs * rhs;
        case ArithOp::kDiv:
          if (rhs == 0) throw AnalyzeError("division by zero in predicate");
          return lhs / rhs;
      }
    }
    throw AnalyzeError("expected an arithmetic expression");
  }

  static bool is_arith(const Expr& e) {
    return std::holds_alternative<IntLit>(e.node) ||
           std::holds_alternative<SizeOf>(e.node) ||
           std::holds_alternative<Arith>(e.node);
  }

  // --- expression resolution ------------------------------------------------

  RExprPtr resolve_call_expr(const Expr& e) {
    if (!std::holds_alternative<Call>(e.node))
      throw AnalyzeError("predicate must start with MAX/MIN/KTH_MAX/KTH_MIN");
    const Call& call = std::get<Call>(e.node);
    RCall rc;
    rc.op = call.op;

    size_t first_value_arg = 0;
    if (call.op == Op::kKthMax || call.op == Op::kKthMin) {
      if (call.args.size() < 2)
        throw AnalyzeError(std::string(op_name(call.op)) +
                           " needs a k argument and at least one operand");
      if (!is_arith(*call.args[0]))
        throw AnalyzeError(std::string(op_name(call.op)) +
                           ": first argument (k) must be arithmetic");
      auto k = std::make_unique<RExpr>();
      k->node = RConst{fold_arith(*call.args[0])};
      rc.args.push_back(std::move(k));
      first_value_arg = 1;
    } else if (call.args.empty()) {
      throw AnalyzeError(std::string(op_name(call.op)) +
                         " needs at least one argument");
    }

    for (size_t i = first_value_arg; i < call.args.size(); ++i) {
      const Expr& arg = *call.args[i];
      if (std::holds_alternative<Call>(arg.node)) {
        rc.args.push_back(resolve_call_expr(arg));
      } else if (std::holds_alternative<SetArg>(arg.node)) {
        const SetArg& sa = std::get<SetArg>(arg.node);
        auto g = std::make_unique<RExpr>();
        g->node = RGather{intern_list(resolve_set(sa.set)),
                          resolve_type(sa.suffix)};
        rc.args.push_back(std::move(g));
      } else if (is_arith(arg)) {
        auto c = std::make_unique<RExpr>();
        c->node = RConst{fold_arith(arg)};
        rc.args.push_back(std::move(c));
      } else {
        throw AnalyzeError("unsupported argument kind");
      }
    }
    auto out = std::make_unique<RExpr>();
    out->node = std::move(rc);
    return out;
  }

  static constexpr const char* kReceived = "received";

  const AnalyzeContext& ctx_;
  std::vector<std::vector<NodeId>> lists_;
  std::set<StabilityTypeId> types_;
};

}  // namespace

Result<Resolved> analyze(const Expr& root, const AnalyzeContext& ctx) {
  try {
    Analyzer analyzer(ctx);
    return analyzer.run(root);
  } catch (const AnalyzeError& e) {
    return Result<Resolved>::error(e.what());
  }
}

namespace {
void print_rexpr(std::ostringstream& oss, const RExpr& e,
                 const Resolved& resolved,
                 const std::function<std::string(StabilityTypeId)>& type_name) {
  if (std::holds_alternative<RConst>(e.node)) {
    oss << std::get<RConst>(e.node).value;
  } else if (std::holds_alternative<RGather>(e.node)) {
    const RGather& g = std::get<RGather>(e.node);
    const auto& list = resolved.node_lists[g.list_id];
    std::string suffix;
    std::string tn = type_name ? type_name(g.type) : "";
    if (!tn.empty() && tn != "received") suffix = "." + tn;
    for (size_t i = 0; i < list.size(); ++i) {
      if (i) oss << ",";
      oss << "$" << (list[i] + 1) << suffix;
    }
    if (list.empty()) oss << "<empty>";
  } else {
    const RCall& c = std::get<RCall>(e.node);
    oss << op_name(c.op) << "(";
    for (size_t i = 0; i < c.args.size(); ++i) {
      if (i) oss << ",";
      print_rexpr(oss, *c.args[i], resolved, type_name);
    }
    oss << ")";
  }
}
}  // namespace

std::string expanded_string(
    const Resolved& resolved,
    const std::function<std::string(StabilityTypeId)>& type_name) {
  std::ostringstream oss;
  print_rexpr(oss, *resolved.root, resolved, type_name);
  return oss.str();
}

}  // namespace stab::dsl
