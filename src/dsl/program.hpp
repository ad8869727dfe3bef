// Compiled predicate program: flat bytecode + a specializing fast path.
//
// This is the repository's substitute for the paper's libgccjit backend
// (DESIGN.md §3). The pipeline is:
//
//   source --lex/parse--> AST --analyze--> Resolved --compile--> Program
//
// and Program offers three execution strategies, all semantically identical
// (differential-tested against each other):
//   * interpreter  — walks the Resolved tree (the ablation baseline),
//   * bytecode VM  — flat instruction array over an operand stack,
//   * specialized  — pattern-matched direct loops for the shapes that occur
//                    in practice (single MAX/MIN/KTH over one gathered list,
//                    and one level of nesting), i.e. "poor man's JIT".
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "dsl/resolved.hpp"

namespace stab::dsl {

enum class OpCode : uint8_t {
  kPushConst,    // push imm (a = constant pool index)
  kGather,       // push row[type][n] for each n in list (a = list, b = type)
  kReduceMax,    // pop a values, push max (kNoSeq if a == 0)
  kReduceMin,    // pop a values, push min (kNoSeq if a == 0)
  kSelectKthMax, // pop a values, then pop k; push k-th largest or kNoSeq
  kSelectKthMin, // pop a values, then pop k; push k-th smallest or kNoSeq
};

struct Instr {
  OpCode op;
  uint32_t a = 0;
  uint32_t b = 0;
};

/// Per-caller state of the crossing rule (see Program::bind). The compiled
/// Program holds none, so every engine of a node shares one Program and
/// keeps its own Crossings per predicate.
struct Crossings {
  uint32_t above = 0;             // items strictly above the bound frontier
  std::vector<uint32_t> members;  // region shape: members above, per group
};

class Program {
 public:
  /// Compiles a resolved predicate. The Resolved's node_lists are copied in.
  static Program compile(const Resolved& resolved);

  /// Bytecode VM execution.
  int64_t eval_bytecode(const AckSource& acks) const;

  /// Specialized fast path; falls back to bytecode when the program shape
  /// was not specializable (is_specialized() tells which).
  int64_t eval_specialized(const AckSource& acks) const;
  bool is_specialized() const { return fast_.kind != FastKind::kNone; }

  /// The crossing rule, the control plane's eval avoidance (DESIGN.md §4c).
  /// The caller keeps one Crossings per cached frontier f: how many of the
  /// order statistic's items sit strictly above f. bind() re-derives it in
  /// one pass over the cells; cross() counts one cell advance across f and
  /// says whether the frontier can now move.
  ///
  /// Proof. Every DSL program is a lattice polynomial of the ack cells (a
  /// MIN/MAX/KTH_* composition over constants), so as a function of any one
  /// cell v it has the form g(v) = max(a, min(v, b)) for constants a <= b
  /// set by the other cells. Let f = g(old), so a <= f, and new > old. If
  /// new <= f, then f <= g(new) <= max(a, new) <= f. If old > f, then
  /// min(old, b) <= f forces b <= f, so f <= g(new) <= max(a, b) <= f.
  /// Either way an advance that does not cross f (old <= f < new) leaves
  /// the frontier where it is, for every program. The caller skips those in
  /// O(1) and hands the crossings to cross().
  ///
  /// Exactness. The result is the rank-th largest of n items — the cells of
  /// a single gather, or the groups of OP(MAX(l1), MIN(l2), ...) — with rank
  /// 1 for MAX, n for MIN, k for KTH_MAX(k) and n-k+1 for KTH_MIN(k); an
  /// out-of-range k (or an empty list) yields kNoSeq and never moves. That
  /// order statistic exceeds f exactly when at least rank items do, so
  /// counting the items above f tells when an eval would return more than
  /// f. A MAX group is above f when one member is, a MIN group when all its
  /// members are. Other shapes count nothing: every crossing evaluates.
  void bind(const AckSource& acks, int64_t frontier, Crossings& c) const;
  /// Counts the advance of cell (type, node) across the frontier `c` was
  /// bound to: the caller checked old <= frontier < new, and the cell is
  /// one the program reads. Returns true when the items above the frontier
  /// reach the rank, and false for a cell no counted item reads. O(1) and
  /// searches nothing: a single gather counts every call (the reverse index
  /// dispatches only its own cells), a region shape reads its precomputed
  /// (type, node) -> groups bitmask.
  bool cross(StabilityTypeId type, NodeId node, Crossings& c) const;

  const std::vector<Instr>& instructions() const { return code_; }
  const std::vector<std::vector<NodeId>>& node_lists() const { return lists_; }

 private:
  // Specialization shapes. kSingle covers OP(list[.type]) and
  // KTH(k, list[.type]); kOfReduced covers OP(MAX(l1), MAX(l2), ...) and the
  // KTH variant — the shape of every Table III predicate.
  enum class FastKind { kNone, kSingle, kOfReduced };
  struct FastInner {
    Op op;  // kMax or kMin reduction over one list
    uint32_t list;
    StabilityTypeId type;
  };
  struct Fast {
    FastKind kind = FastKind::kNone;
    Op op;
    int64_t k = 0;  // for KTH outer ops
    std::vector<FastInner> inner;  // one entry (kSingle) or several
  };
  // The crossing rule's compile-time half. kAny evaluates on every
  // crossing (shapes the counts do not cover); kCells counts the cells of
  // the single gather; kGroups counts the groups of a kOfReduced shape.
  enum class CountKind { kAny, kCells, kGroups };
  static constexpr uint32_t kNever = UINT32_MAX;  // a count no item reaches
  static constexpr uint8_t kNoRow = UINT8_MAX;
  struct Count {
    CountKind kind = CountKind::kAny;
    uint32_t rank = kNever;          // items above f that move the frontier
    std::vector<uint32_t> need;      // kGroups: members above per group above
    std::vector<uint8_t> type_row;   // kGroups: type id -> row of `masks`
    size_t stride = 0;               // kGroups: cells per row (max node + 1)
    std::vector<uint64_t> masks;     // kGroups: [row * stride + node] -> groups
  };

  static int64_t reduce_list(const AckSource& acks, Op op,
                             const std::vector<NodeId>& list,
                             StabilityTypeId type);
  /// Members of `list` whose `type` cell is strictly above `frontier`.
  static uint32_t count_above(const AckSource& acks,
                              const std::vector<NodeId>& list,
                              StabilityTypeId type, int64_t frontier);
  void compile_count();

  std::vector<Instr> code_;
  std::vector<int64_t> consts_;
  std::vector<std::vector<NodeId>> lists_;
  Fast fast_;
  Count count_;
  // Eval scratch, reused. One Program is shared by every engine of a node;
  // they evaluate under the node's lock, one at a time.
  mutable std::vector<int64_t> stack_;
  mutable std::vector<int64_t> scratch_;  // for kth selection
};

inline bool Program::cross(StabilityTypeId type, NodeId node,
                           Crossings& c) const {
  switch (count_.kind) {
    case CountKind::kAny:
      return true;
    case CountKind::kCells:
      return ++c.above >= count_.rank;
    case CountKind::kGroups: {
      if (type >= count_.type_row.size() || node >= count_.stride) return false;
      const uint8_t row = count_.type_row[type];
      if (row == kNoRow) return false;
      uint64_t groups = count_.masks[row * count_.stride + node];
      if (groups == 0) return false;
      for (; groups != 0; groups &= groups - 1) {
        const int g = std::countr_zero(groups);
        if (++c.members[g] == count_.need[g]) ++c.above;
      }
      return c.above >= count_.rank;
    }
  }
  return true;
}

/// Reference tree-walking interpreter over the Resolved form. Semantics are
/// the specification; Program must agree with it on every input.
int64_t interpret(const Resolved& resolved, const AckSource& acks);

}  // namespace stab::dsl
