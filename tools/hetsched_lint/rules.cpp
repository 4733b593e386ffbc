#include "rules.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <string_view>
#include <utility>

#include "concurrency.hpp"
#include "token_util.hpp"

namespace hetsched::lint {

namespace {

// ---- path classification ---------------------------------------------------

/// `src/<layer>/...` -> `<layer>`; empty otherwise (umbrella header,
/// tests, bench, tools, examples).
std::string layer_of(std::string_view path) {
  if (!path.starts_with("src/")) return {};
  const std::string_view rest = path.substr(4);
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return {};
  return std::string(rest.substr(0, slash));
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Allowed include targets per source layer: the transitive closure of
/// the target_link_libraries graph in src/*/CMakeLists.txt. A file in
/// layer L may include "X/..." only when X is in allowed(L) — this is
/// the strict layering `support` <- `linalg` <- `des`/`mpisim` <- `hpl`
/// <- `core` <- `search` <- `server`/`measure` <- `apps`, with `obs` a
/// leaf every layer may observe through and `cluster` between des and
/// mpisim. Keep this table in sync with the CMake link graph AND the
/// docs/ARCHITECTURE.md table (the layer-doc-sync rule diffs the two);
/// the linter is the machine check that source includes do not outgrow
/// either.
const std::map<std::string, std::unordered_set<std::string>>& layer_deps() {
  static const std::map<std::string, std::unordered_set<std::string>> deps = {
      {"obs", {"obs"}},
      {"support", {"support", "obs"}},
      {"linalg", {"linalg", "support", "obs"}},
      {"des", {"des", "support", "obs"}},
      {"cluster", {"cluster", "des", "support", "obs"}},
      {"mpisim", {"mpisim", "cluster", "des", "support", "obs"}},
      {"hpl",
       {"hpl", "mpisim", "cluster", "des", "linalg", "support", "obs"}},
      {"core",
       {"core", "hpl", "mpisim", "cluster", "des", "linalg", "support",
        "obs"}},
      {"search",
       {"search", "core", "hpl", "mpisim", "cluster", "des", "linalg",
        "support", "obs"}},
      // The server prices and sweeps but never measures: model *files*
      // reach it through its daemon (tools/), keeping refit machinery
      // out of the request path.
      {"server",
       {"server", "search", "core", "hpl", "mpisim", "cluster", "des",
        "linalg", "support", "obs"}},
      {"measure",
       {"measure", "search", "core", "hpl", "mpisim", "cluster", "des",
        "linalg", "support", "obs"}},
      {"apps",
       {"apps", "measure", "search", "core", "hpl", "mpisim", "cluster",
        "des", "linalg", "support", "obs"}},
  };
  return deps;
}

/// Layers whose code must stay deterministic and allocation-disciplined:
/// everything that prices, simulates or measures. `support` (pool, rng
/// wrappers) and `obs` (tracer needs a real clock) are infrastructure
/// and exempt.
bool is_model_layer(const std::string& layer) {
  static const std::unordered_set<std::string> model = {
      "des",  "linalg", "cluster", "mpisim", "hpl",
      "core", "search", "measure", "apps"};
  return model.count(layer) > 0;
}

/// Fit paths: where double-precision least squares lives; `float` there
/// silently halves the mantissa of N^3-scale design columns.
bool is_fit_layer(const std::string& layer) {
  return layer == "linalg" || layer == "core";
}

}  // namespace

const std::map<std::string, std::unordered_set<std::string>>&
layer_dependency_table() {
  return layer_deps();
}

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> catalog = {
      {"layering",
       "src/<layer> may only include layers at or below it in the "
       "dependency graph (mirrors src/*/CMakeLists.txt)"},
      {"obs-direct",
       "outside src/obs, instrumentation goes through the obs/hooks.hpp "
       "macros — no direct MetricsRegistry/Tracer use or "
       "obs/metrics.hpp / obs/trace.hpp includes"},
      {"metric-name",
       "metric literals in hook macros and trace categories must appear "
       "in the docs/OBSERVABILITY.md naming inventory"},
      {"banned-construct",
       "model/DES code must stay deterministic: no std::rand/srand, "
       "time()/clock(), gettimeofday or std::chrono wall clocks"},
      {"raw-new",
       "model/DES code allocates through containers and smart pointers, "
       "never raw new/delete"},
      {"float-fit",
       "fit paths (src/linalg, src/core) are double-precision only; no "
       "float"},
      {"hot-path-alloc",
       "code between `hetsched-lint: hot-path-begin` / `hot-path-end` "
       "markers must not allocate: no new/make_unique/make_shared/malloc, "
       "no growable-container mutation, no std::function"},
      {"assert-message",
       "HETSCHED_ASSERT / HETSCHED_CHECK need a non-empty message "
       "argument"},
      {"include-guard", "headers must open with #pragma once"},
      {"self-include-first",
       "src/<layer>/<base>.cpp includes its own header first, proving "
       "the header is self-contained"},
      {"layer-doc-sync",
       "the docs/ARCHITECTURE.md layer table must match the dependency "
       "graph the layering rule enforces — doc and rule cannot drift"},
      {"guarded-field",
       "every plain field of a mutex-owning class carries "
       "HETSCHED_GUARDED_BY(<mutex>) or HETSCHED_NOT_GUARDED(\"why\") "
       "(src/ only; atomics, sync primitives and leading-const exempt)"},
      {"memory-order-doc",
       "explicit non-seq_cst memory orders must sit under a "
       "HETSCHED_ATOMIC_DOC(order, \"pairing\") statement; bare "
       "memory_order_relaxed is tolerated only in src/obs/"},
      {"seqlock-protocol",
       "in src/obs/flight*, writer version bumps must bracket all "
       "payload stores and readers must re-check version parity around "
       "payload loads (matched structurally)"},
      {"lock-scope",
       "a HETSCHED_REQUIRES(m) function may only be called with a "
       "lock_guard/unique_lock/scoped_lock of m in scope or from a "
       "caller annotated HETSCHED_REQUIRES/HETSCHED_ACQUIRE(m)"},
  };
  return catalog;
}

PreparedFile prepare_file(FileInput in) {
  PreparedFile pf;
  pf.lexed = lex(in.content);
  pf.in = std::move(in);
  return pf;
}

ProjectIndex build_project_index(const std::vector<PreparedFile>& files) {
  ProjectIndex index;
  for (const PreparedFile& f : files) {
    std::vector<ProjectIndex::RequiresFn> fns = requires_functions(f);
    if (!fns.empty())
      index.requires_by_file.emplace(f.in.path, std::move(fns));
  }
  return index;
}

std::vector<Finding> lint_prepared(const PreparedFile& file,
                                   const LintConfig& cfg,
                                   const ProjectIndex* index) {
  std::vector<Finding> out;
  const FileInput& in = file.in;
  const LexedFile& lexed = file.lexed;
  const std::string layer = layer_of(in.path);
  const bool in_src = in.path.starts_with("src/");
  const bool is_header = ends_with(in.path, ".hpp") || ends_with(in.path, ".h");
  const bool in_tests = in.path.starts_with("tests/");

  const auto emit = [&](const std::string& rule, int line,
                        std::string message) {
    out.push_back({rule, in.path, line, std::move(message),
                   is_suppressed(lexed, line, rule)});
  };

  // -- layering --------------------------------------------------------------
  if (!layer.empty()) {
    const auto& deps = layer_deps();
    const auto self = deps.find(layer);
    for (const Include& inc : lexed.includes) {
      if (inc.angled) continue;
      // The thread-annotation macro header is layer-neutral: it
      // declares nothing (macros only, no link dependency), and the
      // guarded-field discipline applies to every layer including obs,
      // which sits below support in the DAG.
      if (inc.path == "support/thread_annotations.hpp") continue;
      const std::size_t slash = inc.path.find('/');
      if (slash == std::string::npos) continue;
      const std::string target = inc.path.substr(0, slash);
      if (!deps.count(target)) continue;  // not a layer-qualified include
      if (self == deps.end() || !self->second.count(target))
        emit("layering", inc.line,
             "layer '" + layer + "' must not include \"" + inc.path +
                 "\" (depends upward on '" + target + "')");
    }
  }

  // -- obs-direct ------------------------------------------------------------
  if (in_src && layer != "obs") {
    for (const Include& inc : lexed.includes) {
      if (inc.angled) continue;
      if (inc.path == "obs/metrics.hpp" || inc.path == "obs/trace.hpp")
        emit("obs-direct", inc.line,
             "include \"obs/hooks.hpp\" and use the hook macros instead "
             "of \"" + inc.path + "\"");
    }
    for (const Token& t : lexed.tokens)
      if (t.kind == TokKind::kIdent &&
          (t.text == "MetricsRegistry" || t.text == "Tracer"))
        emit("obs-direct", t.line,
             "direct " + t.text +
                 " access outside src/obs; use the hook macros");
  }

  // -- metric-name (skipped in tests/, which exercise synthetic names) -------
  if (cfg.have_naming_table && !in_tests) {
    static const std::unordered_set<std::string> metric_macros = {
        "HETSCHED_COUNTER_ADD", "HETSCHED_GAUGE_SET",
        "HETSCHED_HISTOGRAM_RECORD"};
    static const std::unordered_set<std::string> trace_macros = {
        "HETSCHED_TRACE_SPAN", "HETSCHED_TRACE_SPAN_VAR",
        "HETSCHED_TRACE_ASYNC_VAR", "HETSCHED_TRACE_INSTANT"};
    const auto& toks = lexed.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent) continue;
      const bool metric = metric_macros.count(toks[i].text) > 0;
      const bool trace = trace_macros.count(toks[i].text) > 0;
      if ((!metric && !trace) || !is_punct(&toks[i + 1], '(')) continue;
      const Token* name = first_string_in_call(toks, i + 1);
      if (!name) continue;  // non-literal name: nothing to look up
      if (metric && !cfg.metric_names.count(name->text))
        emit("metric-name", name->line,
             "metric \"" + name->text +
                 "\" is not in the docs/OBSERVABILITY.md inventory table");
      else if (trace && !cfg.trace_categories.count(name->text))
        emit("metric-name", name->line,
             "trace category \"" + name->text +
                 "\" is not an instrumented layer name");
    }
  }

  // -- banned-construct / raw-new (model layers only) ------------------------
  if (is_model_layer(layer)) {
    static const std::unordered_set<std::string> banned_always = {
        "rand", "srand", "system_clock", "steady_clock",
        "high_resolution_clock", "gettimeofday"};
    static const std::unordered_set<std::string> banned_calls = {"time",
                                                                 "clock"};
    const auto& toks = lexed.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent) continue;
      if (banned_always.count(t.text)) {
        emit("banned-construct", t.line,
             "'" + t.text +
                 "' injects nondeterminism into model/DES code "
                 "(bit-reproducibility contract)");
        continue;
      }
      if (banned_calls.count(t.text) && i + 1 < toks.size() &&
          is_punct(&toks[i + 1], '(')) {
        // Member calls like `obj.time()` are someone else's method, not
        // the libc wall clock.
        const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
        const bool member = is_punct(prev, '.') ||
                            (prev && prev->kind == TokKind::kPunct &&
                             prev->text == ">");
        if (!member)
          emit("banned-construct", t.line,
               "'" + t.text + "()' reads the wall clock in model/DES code");
        continue;
      }
      if (t.text == "new") {
        emit("raw-new", t.line,
             "raw 'new' in model/DES code; use std::make_unique / "
             "containers");
        continue;
      }
      if (t.text == "delete") {
        const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
        if (!is_punct(prev, '='))  // `= delete` declarations are fine
          emit("raw-new", t.line,
               "raw 'delete' in model/DES code; use RAII ownership");
      }
    }
  }

  // -- float-fit -------------------------------------------------------------
  if (is_fit_layer(layer)) {
    for (const Token& t : lexed.tokens)
      if (t.kind == TokKind::kIdent && t.text == "float")
        emit("float-fit", t.line,
             "'float' in a fit path; coefficient extraction is "
             "double-precision only");
  }

  // -- hot-path-alloc --------------------------------------------------------
  // A region bracketed by `hetsched-lint: hot-path-begin` / `hot-path-end`
  // comments declares an allocation-free contract (the batched estimation
  // sweep prices ~10^6 candidates per call; one stray allocation per leaf
  // is the difference between 1 s and minutes). Enforced lexically:
  // allocator entry points, growable-container mutations and
  // std::function may not appear between the markers. The markers come
  // from the lexer's comment harvest — marker-shaped text inside string
  // literals (raw strings especially) does not open a region.
  {
    std::vector<std::pair<int, int>> regions;
    {
      std::size_t bi = 0, ei = 0;
      const auto& begins = lexed.hot_path_begins;
      const auto& ends = lexed.hot_path_ends;
      int open = -1;
      while (bi < begins.size() || ei < ends.size()) {
        const bool take_begin =
            bi < begins.size() &&
            (ei >= ends.size() || begins[bi] < ends[ei]);
        if (take_begin) {
          if (open < 0) open = begins[bi];
          ++bi;
        } else {
          if (open >= 0) {
            regions.emplace_back(open, ends[ei]);
            open = -1;
          }
          ++ei;
        }
      }
      // Unclosed begin: the contract runs to end of file.
      if (open >= 0)
        regions.emplace_back(open, std::numeric_limits<int>::max());
    }
    if (!regions.empty()) {
      const auto in_region = [&](int line) {
        for (const auto& [b, e] : regions)
          if (line > b && line < e) return true;
        return false;
      };
      static const std::unordered_set<std::string> alloc_calls = {
          "make_unique", "make_shared", "malloc", "calloc", "realloc",
          "strdup"};
      static const std::unordered_set<std::string> growth_calls = {
          "push_back", "emplace_back", "emplace", "insert",
          "resize",    "reserve",      "assign",  "append"};
      const auto& toks = lexed.tokens;
      for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind != TokKind::kIdent || !in_region(t.line)) continue;
        const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
        const Token* next = i + 1 < toks.size() ? &toks[i + 1] : nullptr;
        if (t.text == "new") {
          emit("hot-path-alloc", t.line,
               "'new' inside a hot-path region (allocation-free contract)");
        } else if (alloc_calls.count(t.text) &&
                   (is_punct(next, '(') || is_punct(next, '<'))) {
          // `<` too: make_unique/make_shared are almost always spelled
          // with explicit template arguments.
          emit("hot-path-alloc", t.line,
               "'" + t.text + "' allocates inside a hot-path region");
        } else if (growth_calls.count(t.text) && is_punct(next, '(') &&
                   (is_punct(prev, '.') ||
                    (prev && prev->kind == TokKind::kPunct &&
                     prev->text == ">"))) {
          emit("hot-path-alloc", t.line,
               "container '" + t.text +
                   "' may reallocate inside a hot-path region; pre-size "
                   "outside the region and use indexed writes");
        } else if (t.text == "function" && is_punct(prev, ':')) {
          emit("hot-path-alloc", t.line,
               "std::function inside a hot-path region allocates on "
               "capture; take a template parameter instead");
        }
      }
    }
  }

  // -- assert-message --------------------------------------------------------
  {
    const auto& toks = lexed.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent ||
          (toks[i].text != "HETSCHED_ASSERT" &&
           toks[i].text != "HETSCHED_CHECK") ||
          !is_punct(&toks[i + 1], '('))
        continue;
      std::vector<std::size_t> commas;
      const std::size_t end = match_paren(toks, i + 1, &commas);
      if (commas.empty()) {
        emit("assert-message", toks[i].line,
             toks[i].text + " without a message argument");
        continue;
      }
      // Last argument: tokens after the final top-level comma. Accept a
      // non-empty string literal, or an identifier/number (a message
      // built from an expression or variable); an empty literal or
      // nothing at all is a missing message.
      bool has_text = false;
      for (std::size_t j = commas.back() + 1; j + 1 < end; ++j) {
        if ((toks[j].kind == TokKind::kString && !toks[j].text.empty()) ||
            toks[j].kind == TokKind::kIdent ||
            toks[j].kind == TokKind::kNumber)
          has_text = true;
      }
      if (!has_text)
        emit("assert-message", toks[i].line,
             toks[i].text + " message must be a non-empty string");
    }
  }

  // -- include-guard ---------------------------------------------------------
  if (is_header && !lexed.starts_with_pragma_once)
    emit("include-guard",
         lexed.first_content_line == 0 ? 1 : lexed.first_content_line,
         "header must open with #pragma once");

  // -- self-include-first ----------------------------------------------------
  if (!layer.empty() && ends_with(in.path, ".cpp") &&
      in.sibling_header_exists) {
    const std::size_t slash = in.path.rfind('/');
    const std::string base =
        in.path.substr(slash + 1, in.path.size() - slash - 1 - 4);
    const std::string expect = layer + "/" + base + ".hpp";
    if (lexed.includes.empty() || lexed.includes.front().angled ||
        lexed.includes.front().path != expect)
      emit("self-include-first",
           lexed.includes.empty() ? 1 : lexed.includes.front().line,
           "first include must be \"" + expect +
               "\" (self-contained-header check)");
  }

  // -- concurrency-contract family (guarded-field, memory-order-doc,
  //    seqlock-protocol, lock-scope) -----------------------------------------
  concurrency_rules(file, index, emit);

  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return out;
}

std::vector<Finding> lint_file(const FileInput& in, const LintConfig& cfg) {
  return lint_prepared(prepare_file(in), cfg, nullptr);
}

}  // namespace hetsched::lint
