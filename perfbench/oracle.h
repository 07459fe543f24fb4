// Naive reference statistics and the shadow copy of the view that every
// benchmark answer is checked against.
//
// The oracle never calls into statdb's statistics code: each statistic
// is recomputed here from plain vectors in the most direct way (sort,
// count, sum). Missing cells are NaN and are skipped, as the DBMS skips
// null cells. Mutations are replayed on the shadow with the same
// predicate and value semantics the DBMS documents for UpdateSpec, and a
// rollback restores the pre-images recorded per version.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "relational/table.h"
#include "summary/summary_result.h"

namespace perfbench {

/// One statistical request the benchmark sends. `attr_b` is set for
/// bivariate requests; `param` is the quantile p or the histogram bucket
/// count (0 when the function takes none).
struct Request {
  std::string function;
  std::string attr;
  std::string attr_b;
  double param = 0;

  bool bivariate() const { return !attr_b.empty(); }
  std::string Label() const;
};

/// One mutation of the data-cleaning loop (§3.1 of the paper): rescale a
/// subgroup, mark outliers missing, or roll back to an earlier version.
struct Mutation {
  enum class Kind { kRescale, kMarkMissing, kRollback };
  Kind kind = Kind::kRescale;
  std::string column;
  // kRescale: rows with age_lo <= AGE < age_lo + 10 and SEX == sex get
  // column *= factor (AGE is uniform, so every such subgroup holds about
  // the same number of rows). kMarkMissing: rows where column > threshold
  // become missing. kRollback: the view returns to `target_version`.
  int64_t age_lo = 0;
  int64_t sex = 0;
  double factor = 1.0;
  double threshold = 0;
  uint64_t target_version = 0;

  std::string Label() const;
};

/// Outcome of comparing a DBMS answer to the oracle.
struct Verdict {
  bool ok = true;
  std::string detail;  // set when !ok
};

/// The benchmark's model of the view: value and category columns as
/// doubles (NaN = missing), an undo stack per version, and lazily
/// computed per-attribute reference statistics.
class Shadow {
 public:
  /// Copies the named columns of `table`.
  Shadow(const statdb::Table& table, const std::vector<std::string>& columns);

  uint64_t version() const { return undo_.size(); }

  /// Applies `m` and returns the number of cells it changed (the count
  /// StatisticalDbms::Update reports; 0 for a rollback).
  uint64_t Apply(const Mutation& m);

  /// The reference answer to `r` on the current state.
  statdb::SummaryResult Answer(const Request& r);

  /// Compares `got` with Answer(r) under Compare's rule.
  Verdict Check(const Request& r, const statdb::SummaryResult& got) {
    return Compare(r, Answer(r), got);
  }

  /// The answer rule: bit-exact for count, min, max, median, quantile,
  /// mode, distinct and histograms; 1e-9 relative for moments and
  /// correlation.
  static Verdict Compare(const Request& r, const statdb::SummaryResult& want,
                         const statdb::SummaryResult& got);

  /// Digest of the generated inputs (the determinism
  /// self-check asserts that a new seed changes it).
  uint64_t Fingerprint() const;

 private:
  struct Stats {
    std::vector<double> sorted;  // non-missing values, ascending
    double mean = 0;
    double variance = 0;
    double mode = 0;
    double distinct = 0;
  };
  const Stats& StatsOf(const std::string& attr);
  std::vector<double>& Col(const std::string& name);

  std::map<std::string, std::vector<double>> cols_;
  struct Undo {
    std::string column;
    uint64_t row;
    double old_value;
  };
  std::vector<std::vector<Undo>> undo_;
  std::map<std::string, std::optional<Stats>> stats_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
