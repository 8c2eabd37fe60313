#pragma once
/// \file e2e.hpp
/// Shared pieces of the end-to-end benchmark driver: the workload table,
/// wall/CPU clocks, the in-memory span recorder of the traced run, and a
/// minimal JSON writer. See README.md for what each metric means.

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "cfd/config.hpp"

namespace e2e {

/// One benchmark workload: all use TurbineCase::kSingle at refine 0.5.
struct Workload {
  const char* name;
  int nranks;
  bool optimized;   ///< SimConfig::optimized() vs SimConfig::baseline()
  int later_steps;  ///< timed steps after the cold first step
};

inline constexpr double kRefine = 0.5;

inline double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// In-memory span log: name, start, end and parent index per span.
/// Spans open and close in LIFO order on the orchestrator thread.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };

  int open(std::string name);
  void close(int id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time summed per layer (the span name up to its first '.'):
  /// each span's duration minus the part its children cover.
  std::vector<std::pair<std::string, double>> self_time_by_layer() const;
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null log records nothing (the untraced run).
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name)
      : log_(log), id_(log ? log->open(std::move(name)) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Flat JSON object writer: keys in insertion order, doubles printed with
/// all 17 significant digits so exact counters round-trip.
class JsonObject {
 public:
  void num(const std::string& key, double v);
  void boolean(const std::string& key, bool v);
  void str(const std::string& key, const std::string& v);
  void array(const std::string& key, const std::vector<double>& v);
  /// Nested object or array already rendered as JSON text.
  void raw(const std::string& key, const std::string& json);
  std::string render() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

std::string json_number(double v);

/// Per-layer probes of the traced run (probes.cpp): each calls one
/// module's public functions on the workload's own mesh, rank count,
/// partition method and SimConfig preset, inside spans of `log`, and
/// adds its metrics to `out`. Returns false if a probe's own correctness
/// check fails (the pressure probe's true relative residual).
bool run_probes(const Workload& w, const exw::cfd::SimConfig& cfg,
                unsigned seed, SpanLog& log, JsonObject& out);

}  // namespace e2e
