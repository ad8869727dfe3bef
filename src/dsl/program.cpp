#include "dsl/program.hpp"

#include <algorithm>
#include <cassert>

namespace stab::dsl {

namespace {

int64_t ack_at(const AckSource& acks, StabilityTypeId type, NodeId node) {
  std::span<const int64_t> row = acks.row(type);
  return node < row.size() ? row[node] : kNoSeq;
}

/// k-th largest (kth_max) or k-th smallest (kth_min) of values; 1-based k.
int64_t select_kth(std::vector<int64_t>& values, int64_t k, bool largest) {
  if (k < 1 || k > static_cast<int64_t>(values.size())) return kNoSeq;
  size_t idx = static_cast<size_t>(k - 1);
  if (largest)
    std::nth_element(values.begin(), values.begin() + idx, values.end(),
                     std::greater<int64_t>());
  else
    std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

// --- interpreter ------------------------------------------------------------

void collect_values(const RExpr& e, const Resolved& resolved,
                    const AckSource& acks, std::vector<int64_t>& out);

int64_t interpret_expr(const RExpr& e, const Resolved& resolved,
                       const AckSource& acks) {
  if (std::holds_alternative<RConst>(e.node))
    return std::get<RConst>(e.node).value;
  if (std::holds_alternative<RGather>(e.node)) {
    // A bare gather used as a scalar (cannot happen from the analyzer, which
    // only places gathers inside calls) — define as MAX of the list.
    const RGather& g = std::get<RGather>(e.node);
    int64_t best = kNoSeq;
    for (NodeId n : resolved.node_lists[g.list_id])
      best = std::max(best, ack_at(acks, g.type, n));
    return best;
  }
  const RCall& call = std::get<RCall>(e.node);
  std::vector<int64_t> values;
  switch (call.op) {
    case Op::kMax: {
      for (const auto& a : call.args) collect_values(*a, resolved, acks, values);
      if (values.empty()) return kNoSeq;
      return *std::max_element(values.begin(), values.end());
    }
    case Op::kMin: {
      for (const auto& a : call.args) collect_values(*a, resolved, acks, values);
      if (values.empty()) return kNoSeq;
      return *std::min_element(values.begin(), values.end());
    }
    case Op::kKthMax:
    case Op::kKthMin: {
      int64_t k = interpret_expr(*call.args[0], resolved, acks);
      for (size_t i = 1; i < call.args.size(); ++i)
        collect_values(*call.args[i], resolved, acks, values);
      return select_kth(values, k, call.op == Op::kKthMax);
    }
  }
  return kNoSeq;
}

void collect_values(const RExpr& e, const Resolved& resolved,
                    const AckSource& acks, std::vector<int64_t>& out) {
  if (std::holds_alternative<RGather>(e.node)) {
    const RGather& g = std::get<RGather>(e.node);
    for (NodeId n : resolved.node_lists[g.list_id])
      out.push_back(ack_at(acks, g.type, n));
    return;
  }
  out.push_back(interpret_expr(e, resolved, acks));
}

}  // namespace

int64_t interpret(const Resolved& resolved, const AckSource& acks) {
  return interpret_expr(*resolved.root, resolved, acks);
}

// --- compiler ---------------------------------------------------------------

namespace {

struct CompileState {
  std::vector<Instr> code;
  std::vector<int64_t> consts;
};

uint32_t intern_const(CompileState& st, int64_t v) {
  for (uint32_t i = 0; i < st.consts.size(); ++i)
    if (st.consts[i] == v) return i;
  st.consts.push_back(v);
  return static_cast<uint32_t>(st.consts.size() - 1);
}

/// Emits code that leaves the flattened values of `e` on the stack; returns
/// how many stack slots were produced.
uint32_t emit_values(const RExpr& e, const Resolved& resolved,
                     CompileState& st);

/// Emits code that leaves exactly one value (the result of `e`) on the stack.
void emit_scalar(const RExpr& e, const Resolved& resolved, CompileState& st) {
  if (std::holds_alternative<RConst>(e.node)) {
    st.code.push_back({OpCode::kPushConst,
                       intern_const(st, std::get<RConst>(e.node).value), 0});
    return;
  }
  if (std::holds_alternative<RGather>(e.node)) {
    const RGather& g = std::get<RGather>(e.node);
    st.code.push_back({OpCode::kGather, g.list_id, g.type});
    st.code.push_back(
        {OpCode::kReduceMax,
         static_cast<uint32_t>(resolved.node_lists[g.list_id].size()), 0});
    return;
  }
  const RCall& call = std::get<RCall>(e.node);
  if (call.op == Op::kMax || call.op == Op::kMin) {
    uint32_t n = 0;
    for (const auto& a : call.args) n += emit_values(*a, resolved, st);
    st.code.push_back({call.op == Op::kMax ? OpCode::kReduceMax
                                           : OpCode::kReduceMin,
                       n, 0});
    return;
  }
  // KTH: push k, then the values, then select.
  emit_scalar(*call.args[0], resolved, st);
  uint32_t n = 0;
  for (size_t i = 1; i < call.args.size(); ++i)
    n += emit_values(*call.args[i], resolved, st);
  st.code.push_back({call.op == Op::kKthMax ? OpCode::kSelectKthMax
                                            : OpCode::kSelectKthMin,
                     n, 0});
}

uint32_t emit_values(const RExpr& e, const Resolved& resolved,
                     CompileState& st) {
  if (std::holds_alternative<RGather>(e.node)) {
    const RGather& g = std::get<RGather>(e.node);
    st.code.push_back({OpCode::kGather, g.list_id, g.type});
    return static_cast<uint32_t>(resolved.node_lists[g.list_id].size());
  }
  emit_scalar(e, resolved, st);
  return 1;
}

}  // namespace

Program Program::compile(const Resolved& resolved) {
  Program p;
  CompileState st;
  emit_scalar(*resolved.root, resolved, st);
  p.code_ = std::move(st.code);
  p.consts_ = std::move(st.consts);
  p.lists_ = resolved.node_lists;

  // --- specialization pass ---------------------------------------------------
  const RCall& root = std::get<RCall>(resolved.root->node);
  auto gather_of = [](const RExpr& e) -> const RGather* {
    return std::holds_alternative<RGather>(e.node) ? &std::get<RGather>(e.node)
                                                   : nullptr;
  };
  // Shape 1: OP(single gather) / KTH(k, single gather).
  bool kth = root.op == Op::kKthMax || root.op == Op::kKthMin;
  size_t first = kth ? 1 : 0;
  if (root.args.size() == first + 1) {
    if (const RGather* g = gather_of(*root.args[first])) {
      p.fast_.kind = FastKind::kSingle;
      p.fast_.op = root.op;
      if (kth) p.fast_.k = std::get<RConst>(root.args[0]->node).value;
      p.fast_.inner.push_back(
          FastInner{root.op == Op::kMin || root.op == Op::kKthMin ? Op::kMin
                                                                  : Op::kMax,
                    g->list_id, g->type});
      // For kSingle the inner op is irrelevant (we reduce/select directly on
      // the gathered row); store the list/type only.
      p.fast_.inner[0].op = root.op;
      p.compile_count();
      return p;
    }
  }
  // Shape 2: OP(MAX(l1), MAX(l2), ...) with every arg a single-gather
  // MAX/MIN — the Table III region predicates.
  bool all_reduced = root.args.size() > first;
  std::vector<FastInner> inner;
  for (size_t i = first; i < root.args.size() && all_reduced; ++i) {
    const RExpr& a = *root.args[i];
    if (!std::holds_alternative<RCall>(a.node)) {
      all_reduced = false;
      break;
    }
    const RCall& c = std::get<RCall>(a.node);
    const RGather* g =
        c.args.size() == 1 ? gather_of(*c.args[0]) : nullptr;
    if ((c.op != Op::kMax && c.op != Op::kMin) || !g) {
      all_reduced = false;
      break;
    }
    inner.push_back(FastInner{c.op, g->list_id, g->type});
  }
  if (all_reduced) {
    p.fast_.kind = FastKind::kOfReduced;
    p.fast_.op = root.op;
    if (kth) p.fast_.k = std::get<RConst>(root.args[0]->node).value;
    p.fast_.inner = std::move(inner);
  }
  p.compile_count();
  return p;
}

// --- crossing rule --------------------------------------------------------------

void Program::compile_count() {
  count_ = Count{};
  // Rank of the order statistic over n items (see bind()); kNever when the
  // result is kNoSeq whatever the cells hold.
  auto rank_of = [](Op op, int64_t k, size_t n) -> uint32_t {
    const auto items = static_cast<int64_t>(n);
    if (n == 0) return kNever;
    switch (op) {
      case Op::kMax:
        return 1;
      case Op::kMin:
        return static_cast<uint32_t>(n);
      case Op::kKthMax:
        return k >= 1 && k <= items ? static_cast<uint32_t>(k) : kNever;
      case Op::kKthMin:
        return k >= 1 && k <= items ? static_cast<uint32_t>(items - k + 1)
                                    : kNever;
    }
    return kNever;
  };
  switch (fast_.kind) {
    case FastKind::kNone:
      return;
    case FastKind::kSingle: {
      const std::vector<NodeId>& list = lists_[fast_.inner[0].list];
      count_.kind = CountKind::kCells;
      count_.rank = rank_of(fast_.op, fast_.k, list.size());
      return;
    }
    case FastKind::kOfReduced: {
      if (fast_.inner.size() > 64) return;  // one mask bit per group
      StabilityTypeId max_type = 0;
      NodeId max_node = 0;
      for (const FastInner& in : fast_.inner) {
        max_type = std::max(max_type, in.type);
        for (NodeId n : lists_[in.list]) max_node = std::max(max_node, n);
      }
      count_.type_row.assign(static_cast<size_t>(max_type) + 1, kNoRow);
      uint8_t rows = 0;
      for (const FastInner& in : fast_.inner)
        if (count_.type_row[in.type] == kNoRow) count_.type_row[in.type] = rows++;
      count_.stride = static_cast<size_t>(max_node) + 1;
      count_.masks.assign(rows * count_.stride, 0);
      for (size_t g = 0; g < fast_.inner.size(); ++g) {
        const FastInner& in = fast_.inner[g];
        const std::vector<NodeId>& list = lists_[in.list];
        // A MAX group is above f at one member, a MIN group at all of
        // them; an empty group reads kNoSeq and never is.
        uint32_t need = kNever;
        if (!list.empty())
          need = in.op == Op::kMax ? 1 : static_cast<uint32_t>(list.size());
        count_.need.push_back(need);
        for (NodeId n : list)
          count_.masks[count_.type_row[in.type] * count_.stride + n] |=
              uint64_t{1} << g;
      }
      count_.kind = CountKind::kGroups;
      count_.rank = rank_of(fast_.op, fast_.k, fast_.inner.size());
      return;
    }
  }
}

uint32_t Program::count_above(const AckSource& acks,
                              const std::vector<NodeId>& list,
                              StabilityTypeId type, int64_t frontier) {
  std::span<const int64_t> row = acks.row(type);
  uint32_t above = 0;
  for (NodeId n : list) above += (n < row.size() ? row[n] : kNoSeq) > frontier;
  return above;
}

void Program::bind(const AckSource& acks, int64_t frontier,
                   Crossings& c) const {
  c.above = 0;
  switch (count_.kind) {
    case CountKind::kAny:
      return;
    case CountKind::kCells: {
      const FastInner& in = fast_.inner[0];
      c.above = count_above(acks, lists_[in.list], in.type, frontier);
      return;
    }
    case CountKind::kGroups:
      c.members.resize(fast_.inner.size());
      for (size_t g = 0; g < fast_.inner.size(); ++g) {
        const FastInner& in = fast_.inner[g];
        c.members[g] = count_above(acks, lists_[in.list], in.type, frontier);
        if (c.members[g] >= count_.need[g]) ++c.above;
      }
      return;
  }
}

// --- bytecode VM --------------------------------------------------------------

int64_t Program::eval_bytecode(const AckSource& acks) const {
  if (code_.empty()) return kNoSeq;  // default-constructed (empty) program
  std::vector<int64_t>& stack = stack_;
  stack.clear();
  for (const Instr& ins : code_) {
    switch (ins.op) {
      case OpCode::kPushConst:
        stack.push_back(consts_[ins.a]);
        break;
      case OpCode::kGather: {
        std::span<const int64_t> row = acks.row(ins.b);
        for (NodeId n : lists_[ins.a])
          stack.push_back(n < row.size() ? row[n] : kNoSeq);
        break;
      }
      case OpCode::kReduceMax: {
        int64_t best = kNoSeq;
        for (uint32_t i = 0; i < ins.a; ++i) {
          best = std::max(best, stack.back());
          stack.pop_back();
        }
        stack.push_back(best);
        break;
      }
      case OpCode::kReduceMin: {
        int64_t best = kNoSeq;
        bool any = false;
        for (uint32_t i = 0; i < ins.a; ++i) {
          best = any ? std::min(best, stack.back()) : stack.back();
          any = true;
          stack.pop_back();
        }
        stack.push_back(any ? best : kNoSeq);
        break;
      }
      case OpCode::kSelectKthMax:
      case OpCode::kSelectKthMin: {
        scratch_.assign(stack.end() - ins.a, stack.end());
        stack.resize(stack.size() - ins.a);
        int64_t k = stack.back();
        stack.pop_back();
        stack.push_back(
            select_kth(scratch_, k, ins.op == OpCode::kSelectKthMax));
        break;
      }
    }
  }
  assert(stack.size() == 1);
  return stack.back();
}

// --- specialized path ----------------------------------------------------------

int64_t Program::reduce_list(const AckSource& acks, Op op,
                             const std::vector<NodeId>& list,
                             StabilityTypeId type) {
  std::span<const int64_t> row = acks.row(type);
  if (list.empty()) return kNoSeq;
  int64_t best = op == Op::kMax ? kNoSeq : INT64_MAX;
  for (NodeId n : list) {
    int64_t v = n < row.size() ? row[n] : kNoSeq;
    best = op == Op::kMax ? std::max(best, v) : std::min(best, v);
  }
  return best;
}

int64_t Program::eval_specialized(const AckSource& acks) const {
  switch (fast_.kind) {
    case FastKind::kNone:
      return eval_bytecode(acks);
    case FastKind::kSingle: {
      const FastInner& in = fast_.inner[0];
      const std::vector<NodeId>& list = lists_[in.list];
      std::span<const int64_t> row = acks.row(in.type);
      switch (fast_.op) {
        case Op::kMax:
          return reduce_list(acks, Op::kMax, list, in.type);
        case Op::kMin:
          return reduce_list(acks, Op::kMin, list, in.type);
        case Op::kKthMax:
        case Op::kKthMin: {
          scratch_.clear();
          for (NodeId n : list)
            scratch_.push_back(n < row.size() ? row[n] : kNoSeq);
          return select_kth(scratch_, fast_.k, fast_.op == Op::kKthMax);
        }
      }
      return kNoSeq;
    }
    case FastKind::kOfReduced: {
      scratch_.clear();
      for (const FastInner& in : fast_.inner)
        scratch_.push_back(reduce_list(acks, in.op, lists_[in.list], in.type));
      switch (fast_.op) {
        case Op::kMax:
          return *std::max_element(scratch_.begin(), scratch_.end());
        case Op::kMin:
          return *std::min_element(scratch_.begin(), scratch_.end());
        case Op::kKthMax:
        case Op::kKthMin:
          return select_kth(scratch_, fast_.k, fast_.op == Op::kKthMax);
      }
      return kNoSeq;
    }
  }
  return kNoSeq;
}

}  // namespace stab::dsl
