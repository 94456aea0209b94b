#include "spans.hpp"

#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

double us_since(Clock::time_point origin) {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot ? std::string(name, dot) : std::string(name);
}

}  // namespace

Spans::Spans() : origin_(Clock::now()) {}

Spans& Spans::get() {
  static Spans s;
  return s;
}

int Spans::open(const char* name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  recs_.push_back({name, us_since(origin_), 0.0, parent, op_});
  const int idx = static_cast<int>(recs_.size()) - 1;
  stack_.push_back(idx);
  return idx;
}

void Spans::close(int idx) {
  recs_[static_cast<std::size_t>(idx)].t1_us = us_since(origin_);
  // Spans close in LIFO order (RAII), so the top of the stack is idx.
  stack_.pop_back();
}

std::vector<double> Spans::op_durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Rec& r : recs_)
    if (r.op >= 0 && name == r.name) out.push_back(r.t1_us - r.t0_us);
  return out;
}

std::map<std::string, double> Spans::self_ms_by_layer(bool ops_only) const {
  std::vector<double> child_us(recs_.size(), 0.0);
  for (const Rec& r : recs_)
    if (r.parent >= 0)
      child_us[static_cast<std::size_t>(r.parent)] += r.t1_us - r.t0_us;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    if (ops_only && r.op < 0) continue;
    out[layer_of(r.name)] += (r.t1_us - r.t0_us - child_us[i]) / 1e3;
  }
  return out;
}

bool Spans::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "id,parent,op,name,t0_us,t1_us\n");
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    std::fprintf(f, "%zu,%d,%d,%s,%.3f,%.3f\n", i, r.parent, r.op, r.name,
                 r.t0_us, r.t1_us);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
