#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace perfbench {

using statdb::Histogram;
using statdb::SummaryResult;

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Functions whose answer must match the oracle bit for bit; every other
// scalar (moments, correlation) is held to kRelTol.
bool ExactFunction(const std::string& fn) {
  return fn == "count" || fn == "min" || fn == "max" || fn == "range" ||
         fn == "median" || fn == "quantile" || fn == "mode" ||
         fn == "distinct";
}
constexpr double kRelTol = 1e-9;

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double QuantileOfSorted(const std::vector<double>& s, double p) {
  // R type 7: linear interpolation between the order statistics around
  // p * (n - 1).
  const size_t n = s.size();
  if (n == 1) return s[0];
  const double h = p * double(n - 1);
  const size_t lo = size_t(std::floor(h));
  const size_t hi = std::min(lo + 1, n - 1);
  return s[lo] + (h - double(lo)) * (s[hi] - s[lo]);
}

Histogram EqualWidth(const std::vector<double>& sorted, size_t buckets) {
  double lo = sorted.front();
  double hi = sorted.back();
  if (lo == hi) hi = lo + 1.0;
  Histogram h;
  const double width = (hi - lo) / double(buckets);
  for (size_t i = 0; i <= buckets; ++i) h.edges.push_back(lo + width * double(i));
  h.edges.back() = hi;
  h.counts.assign(buckets, 0);
  for (double x : sorted) {
    size_t b = x == hi ? buckets - 1
                       : std::min(size_t((x - lo) / width), buckets - 1);
    ++h.counts[b];
  }
  return h;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

std::string Request::Label() const {
  std::string s = function + "(" + attr;
  if (bivariate()) s += "," + attr_b;
  if (param != 0) s += ";" + Num(param);
  return s + ")";
}

std::string Mutation::Label() const {
  switch (kind) {
    case Kind::kRescale:
      return column + "*=" + Num(factor) + " where AGE in [" +
             std::to_string(age_lo) + "," + std::to_string(age_lo + 10) +
             ") and SEX=" + std::to_string(sex);
    case Kind::kMarkMissing:
      return column + ":=missing where " + column + ">" + Num(threshold);
    case Kind::kRollback:
      return "rollback to " + std::to_string(target_version);
  }
  return "?";
}

Shadow::Shadow(const statdb::Table& table,
               const std::vector<std::string>& columns) {
  for (const std::string& name : columns) {
    const std::vector<statdb::Value>& cells =
        *table.ColumnByName(name).value();
    std::vector<double>& out = cols_[name];
    out.reserve(cells.size());
    for (const statdb::Value& v : cells) {
      out.push_back(v.is_null() ? kNaN : v.ToDouble().value());
    }
  }
}

std::vector<double>& Shadow::Col(const std::string& name) {
  return cols_.at(name);
}

uint64_t Shadow::Apply(const Mutation& m) {
  if (m.kind == Mutation::Kind::kRollback) {
    while (undo_.size() > m.target_version) {
      for (auto it = undo_.back().rbegin(); it != undo_.back().rend(); ++it) {
        Col(it->column)[it->row] = it->old_value;
        stats_[it->column].reset();
      }
      undo_.pop_back();
    }
    return 0;
  }
  std::vector<double>& col = Col(m.column);
  std::vector<Undo> changes;
  for (uint64_t r = 0; r < col.size(); ++r) {
    const double old = col[r];
    double next = old;
    if (m.kind == Mutation::Kind::kRescale) {
      const double age = Col("AGE")[r];
      if (!(age >= double(m.age_lo) && age < double(m.age_lo + 10)) ||
          Col("SEX")[r] != double(m.sex) || std::isnan(old)) {
        continue;
      }
      next = old * m.factor;
    } else {
      if (!(old > m.threshold)) continue;
      next = kNaN;
    }
    if (SameBits(next, old)) continue;  // an unchanged cell is no change
    col[r] = next;
    changes.push_back({m.column, r, old});
  }
  if (changes.empty()) return 0;
  stats_[m.column].reset();
  undo_.push_back(std::move(changes));
  return undo_.back().size();
}

const Shadow::Stats& Shadow::StatsOf(const std::string& attr) {
  std::optional<Stats>& slot = stats_[attr];
  if (slot.has_value()) return *slot;
  Stats s;
  for (double x : Col(attr)) {
    if (!std::isnan(x)) s.sorted.push_back(x);
  }
  std::sort(s.sorted.begin(), s.sorted.end());
  const double n = double(s.sorted.size());
  long double sum = 0;
  for (double x : s.sorted) sum += x;
  s.mean = double(sum / (long double)n);
  long double ss = 0;
  for (double x : s.sorted) ss += ((long double)x - s.mean) * ((long double)x - s.mean);
  s.variance = s.sorted.size() < 2 ? 0.0 : double(ss / (long double)(n - 1));
  // Mode: longest run of equal values, the smallest value on a tie.
  size_t best = 0;
  for (size_t i = 0; i < s.sorted.size();) {
    size_t j = i;
    while (j < s.sorted.size() && s.sorted[j] == s.sorted[i]) ++j;
    if (j - i > best) {
      best = j - i;
      s.mode = s.sorted[i];
    }
    s.distinct += 1;
    i = j;
  }
  slot = std::move(s);
  return *slot;
}

SummaryResult Shadow::Answer(const Request& r) {
  if (r.bivariate()) {
    const std::vector<double>& a = Col(r.attr);
    const std::vector<double>& b = Col(r.attr_b);
    std::vector<std::pair<double, double>> pairs;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!std::isnan(a[i]) && !std::isnan(b[i])) pairs.push_back({a[i], b[i]});
    }
    long double sa = 0, sb = 0;
    for (auto [x, y] : pairs) {
      sa += x;
      sb += y;
    }
    const long double n = pairs.size();
    const long double ma = sa / n, mb = sb / n;
    long double sab = 0, saa = 0, sbb = 0;
    for (auto [x, y] : pairs) {
      sab += (x - ma) * (y - mb);
      saa += (x - ma) * (x - ma);
      sbb += (y - mb) * (y - mb);
    }
    if (r.function == "covariance") return SummaryResult::Scalar(double(sab / (n - 1)));
    return SummaryResult::Scalar(double(sab / std::sqrt(saa * sbb)));
  }
  const Stats& s = StatsOf(r.attr);
  const std::string& f = r.function;
  if (f == "histogram") {
    return SummaryResult::Histo(EqualWidth(s.sorted, size_t(r.param)));
  }
  double v = kNaN;
  if (f == "count") v = double(s.sorted.size());
  else if (f == "sum") v = s.mean * double(s.sorted.size());
  else if (f == "mean") v = s.mean;
  else if (f == "variance") v = s.variance;
  else if (f == "stddev") v = std::sqrt(s.variance);
  else if (f == "min") v = s.sorted.front();
  else if (f == "max") v = s.sorted.back();
  else if (f == "range") v = s.sorted.back() - s.sorted.front();
  else if (f == "median") v = QuantileOfSorted(s.sorted, 0.5);
  else if (f == "quantile") v = QuantileOfSorted(s.sorted, r.param);
  else if (f == "mode") v = s.mode;
  else if (f == "distinct") v = s.distinct;
  return SummaryResult::Scalar(v);
}

Verdict Shadow::Compare(const Request& r, const SummaryResult& want,
                        const SummaryResult& got) {
  Verdict v;
  if (r.function == "histogram") {
    auto h = got.AsHistogram();
    if (!h.ok()) return {false, "not a histogram"};
    const Histogram& w = *want.AsHistogram().value();
    const Histogram& g = *h.value();
    v.ok = g.counts == w.counts && g.below == w.below && g.above == w.above &&
           g.edges.size() == w.edges.size() &&
           std::equal(g.edges.begin(), g.edges.end(), w.edges.begin(), SameBits);
    if (!v.ok) v.detail = "histogram differs";
    return v;
  }
  auto g = got.AsScalar();
  if (!g.ok()) return {false, "not a scalar"};
  const double w = want.AsScalar().value();
  if (ExactFunction(r.function)) {
    v.ok = SameBits(g.value(), w);
  } else {
    v.ok = std::fabs(g.value() - w) <= kRelTol * std::max(std::fabs(w), 1e-300);
  }
  if (!v.ok) v.detail = "got " + Num(g.value()) + " want " + Num(w);
  return v;
}

uint64_t Shadow::Fingerprint() const {
  uint64_t h = 1469598103934665603ull;  // FNV-1a over the cell bits
  for (const auto& [name, col] : cols_) {
    for (double x : col) {
      uint64_t bits;
      std::memcpy(&bits, &x, sizeof bits);
      h = (h ^ bits) * 1099511628211ull;
    }
  }
  return h;
}

}  // namespace perfbench
