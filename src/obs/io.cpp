#include "obs/io.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace hetsched::obs {

namespace {

std::string g_trace_path;
std::string g_metrics_path;
std::string g_report_path;
bool g_atexit_registered = false;

void flush_at_exit() { flush_outputs(); }

void register_atexit() {
  if (g_atexit_registered) return;
  g_atexit_registered = true;
  std::atexit(flush_at_exit);
}

}  // namespace

bool consume_arg(const std::string& arg) {
  constexpr const char kTrace[] = "--trace-out=";
  constexpr const char kMetrics[] = "--metrics-out=";
  if (arg.rfind(kTrace, 0) == 0) {
    g_trace_path = arg.substr(sizeof(kTrace) - 1);
    Tracer::instance().enable();
    register_atexit();
    return true;
  }
  if (arg.rfind(kMetrics, 0) == 0) {
    g_metrics_path = arg.substr(sizeof(kMetrics) - 1);
    register_atexit();
    return true;
  }
  constexpr const char kReport[] = "--report-out=";
  if (arg.rfind(kReport, 0) == 0) {
    g_report_path = arg.substr(sizeof(kReport) - 1);
    report::Recorder::instance().enable();
    register_atexit();
    return true;
  }
  return false;
}

int flush_outputs() {
  int written = 0;
  if (!g_trace_path.empty()) {
    const std::string path = std::move(g_trace_path);
    g_trace_path.clear();
    std::ofstream out(path);
    if (!out) {
      std::cerr << "obs: cannot write trace file " << path << "\n";
    } else {
      Tracer::instance().write_json(out);
      std::cerr << "obs: trace written to " << path << " ("
                << Tracer::instance().event_count() << " events)\n";
      ++written;
    }
  }
  if (!g_metrics_path.empty()) {
    const std::string path = std::move(g_metrics_path);
    g_metrics_path.clear();
    std::ofstream out(path);
    if (!out) {
      std::cerr << "obs: cannot write metrics file " << path << "\n";
    } else {
      out << registry_json(snapshot()) << '\n';
      std::cerr << "obs: metrics written to " << path << "\n";
      ++written;
    }
  }
  if (!g_report_path.empty()) {
    const std::string path = std::move(g_report_path);
    g_report_path.clear();
    std::ofstream out(path);
    if (!out) {
      std::cerr << "obs: cannot write report file " << path << "\n";
    } else {
      const report::RunReport rep = report::Recorder::instance().build();
      rep.write_json(out);
      std::cerr << "obs: report written to " << path << " ("
                << rep.records.size() << " records, " << rep.scalars.size()
                << " scalars)\n";
      ++written;
    }
  }
  return written;
}

const char* cli_help() {
  return "[--trace-out=FILE] [--metrics-out=FILE] [--report-out=FILE]";
}

}  // namespace hetsched::obs
