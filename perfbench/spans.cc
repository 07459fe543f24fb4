#include "spans.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

double Us(Clock::time_point t, Clock::time_point epoch) {
  return std::chrono::duration<double, std::micro>(t - epoch).count();
}

}  // namespace

void SpanLog::Begin(std::string name, uint64_t op_id) {
  Span s;
  s.name = std::move(name);
  s.id = int64_t(spans_.size());
  s.parent = open_.empty() ? -1 : spans_[open_.back()].id;
  s.op_id = op_id;
  s.tid = tid_;
  s.start_us = Us(Clock::now(), epoch_);
  open_.push_back(spans_.size());
  spans_.push_back(std::move(s));
}

double SpanLog::End(uint64_t rows) {
  Span& s = spans_[open_.back()];
  open_.pop_back();
  s.end_us = Us(Clock::now(), epoch_);
  s.rows = rows;
  return s.end_us - s.start_us;
}

std::map<std::string, SpanTotals> Aggregate(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    // Children of one thread's span run one after another, so the time
    // they cover is the sum of their durations.
    std::vector<double> child_us(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_us[size_t(s.parent)] += s.end_us - s.start_us;
    }
    for (const Span& s : spans) {
      SpanTotals& t = out[s.name];
      const double dur = s.end_us - s.start_us;
      ++t.count;
      t.total_us += dur;
      t.self_us += dur - child_us[size_t(s.id)];
      t.rows += s.rows;
    }
  }
  return out;
}

std::string SelfTimeTable(const std::map<std::string, SpanTotals>& by_name) {
  std::map<std::string, SpanTotals> by_layer;
  double all_self = 0;
  for (const auto& [name, t] : by_name) {
    SpanTotals& l = by_layer[name.substr(0, name.find('.'))];
    l.count += t.count;
    l.total_us += t.total_us;
    l.self_us += t.self_us;
    all_self += t.self_us;
  }
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-12s %10s %14s %14s %8s\n", "layer",
                "spans", "total_ms", "self_ms", "self_%");
  out += line;
  for (const auto& [layer, t] : by_layer) {
    std::snprintf(line, sizeof(line), "%-12s %10llu %14.3f %14.3f %8.2f\n",
                  layer.c_str(), (unsigned long long)t.count,
                  t.total_us / 1000.0, t.self_us / 1000.0,
                  all_self > 0 ? 100.0 * t.self_us / all_self : 0.0);
    out += line;
  }
  return out;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::snprintf(
          buf, sizeof(buf),
          "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op_id\":%llu,"
          "\"span_id\":%lld,\"parent\":%lld,\"rows\":%llu}}",
          first ? "" : ",", s.name.c_str(), s.Layer().c_str(), s.tid,
          s.start_us, s.end_us - s.start_us, (unsigned long long)s.op_id,
          (long long)s.id, (long long)s.parent, (unsigned long long)s.rows);
      f << buf;
      first = false;
    }
  }
  f << "\n]}\n";
  return bool(f);
}

}  // namespace perfbench
