// Public facade of the predicate DSL: one call from source text to an
// executable stability-frontier predicate.
//
//   Predicate::compile("KTH_MIN(SIZEOF($ALLWNODES)/2+1, $ALLWNODES)", ctx)
//
// The compiled predicate maps a control-plane snapshot (AckSource) to the
// stability frontier: the highest sequence number for which the predicate's
// consistency condition holds. Because every input counter is monotonic and
// MAX/MIN/KTH_* are monotone functions, the frontier itself is monotonic —
// the property the control plane's incremental re-evaluation relies on.
#pragma once

#include <string>

#include "common/result.hpp"
#include "common/types.hpp"
#include "dsl/analyzer.hpp"
#include "dsl/program.hpp"

namespace stab::dsl {

enum class EvalMode {
  kInterpreter,  // tree-walking reference (ablation baseline)
  kBytecode,     // flat VM
  kSpecialized,  // pattern-specialized loops, bytecode fallback (default)
};

using PredicateContext = AnalyzeContext;

class Predicate {
 public:
  /// Lex + parse + analyze + compile. `mode` selects the execution strategy;
  /// all modes compute identical results.
  static Result<Predicate> compile(const std::string& source,
                                   const PredicateContext& ctx,
                                   EvalMode mode = EvalMode::kSpecialized);

  /// Evaluate the stability frontier against a control-plane snapshot.
  int64_t eval(const AckSource& acks) const;

  /// The crossing rule (control-plane hot path; proof and exactness at
  /// Program::bind). `c` is the caller's state for one cached frontier:
  /// bind() re-derives it against `frontier`, the result of the last eval()
  /// over `acks`. Only the specialized path counts; the other modes keep
  /// evaluating on every advance, keeping the ablation comparison honest.
  void bind(const AckSource& acks, int64_t frontier, Crossings& c) const {
    if (mode_ == EvalMode::kSpecialized) program_.bind(acks, frontier, c);
  }
  /// True when eval() must run after cell (type, node), one this predicate
  /// reads, advanced from `old_value` to `new_value` while `c` was bound to
  /// `frontier`. An advance that does not cross the frontier is answered in
  /// O(1); a crossing is counted in `c`, and eval() is due once enough
  /// items sit above the frontier to move it.
  bool must_eval(StabilityTypeId type, NodeId node, int64_t old_value,
                 int64_t new_value, int64_t frontier, Crossings& c) const {
    if (mode_ != EvalMode::kSpecialized) return true;
    if (new_value <= frontier || old_value > frontier) return false;
    return program_.cross(type, node, c);
  }

  const std::string& source() const { return source_; }
  EvalMode mode() const { return mode_; }
  /// True when the specialized fast path is active (not merely requested).
  bool specialized() const { return mode_ == EvalMode::kSpecialized && program_.is_specialized(); }

  /// Nodes whose acks the predicate reads — used by fault handling ("the
  /// primary can adjust the predicate to eliminate the impact", §III-E) and
  /// by the control plane to skip re-evaluation on irrelevant updates.
  const std::vector<NodeId>& referenced_nodes() const {
    return resolved_.referenced_nodes;
  }
  const std::vector<StabilityTypeId>& referenced_types() const {
    return resolved_.referenced_types;
  }
  bool references_node(NodeId node) const;
  bool references_type(StabilityTypeId type) const;

  /// Canonical macro-expanded form (Table III bench / debugging).
  std::string expanded(
      const std::function<std::string(StabilityTypeId)>& type_name = {}) const {
    return expanded_string(resolved_, type_name);
  }

  /// Wall-clock cost of the compile() that produced this predicate.
  Duration compile_time() const { return compile_time_; }

  /// An empty predicate (evaluates to kNoSeq); useful as a container
  /// placeholder before assignment.
  Predicate() = default;

 private:
  std::string source_;
  EvalMode mode_ = EvalMode::kSpecialized;
  Resolved resolved_;
  Program program_;
  Duration compile_time_ = Duration::zero();
};

}  // namespace stab::dsl
