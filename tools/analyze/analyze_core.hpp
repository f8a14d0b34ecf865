// specomp-analyze: the repo's one static checker for the determinism and
// rollback-safety invariants that speculative rollback+replay and every
// committed figure depend on (DESIGN.md §12).
//
// Built on the symbol index (symbols.hpp), it runs two passes:
//
//  * Seeds.  Each determinism rule has one token matcher — wall clocks and
//    libc time()/clock() calls, ambient or default-seeded PRNGs, thread ids,
//    pointer-to-integer casts, unordered-container iteration, naked
//    new/delete, type-erased callables in hot-path headers.  A seed fires
//    when either scope holds:
//      - directory scope: its file lies under one of the rule's path
//        prefixes (the whole file, inside a body or not);
//      - replay scope: a replay root (engine / DES / communicator / app
//        methods) reaches its enclosing function along the name-resolved
//        call graph; the finding then carries the root→…→seed chain.
//    One finding is reported per (rule, path, line), the chained one when
//    both scopes apply.
//
//  * Rollback safety.  For every class derived from spec::SyncIterativeApp,
//    the member fields mutated by the step/install/correct closure are
//    checked against the fields referenced by save_state / restore_state /
//    pack_local.  State that escapes the snapshot — unsaved members, static
//    or mutable members, static locals, file I/O, ambient RNG advancement —
//    silently diverges after the first rollback.
//
// Both passes over-approximate, so findings are silenced in place with one
// directive grammar:
//
//    // specomp: pure                          — stops taint propagation
//    // specomp: rollback-covered(field): why  — field is rollback-safe
//    // specomp: allow(wall-clock): why        — silence one rule on a line
//
// `pure` only cuts the call graph; a seed inside a rule's directory scope
// still fires.  Malformed directives are findings themselves (rule
// `bad-annotation`).  The gate is plain: any finding fails.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "symbols.hpp"

namespace specana {

/// One finding.  `symbol` is the qualified function for seed findings ("" for
/// a seed outside any body) and `Class::field` for rollback findings.
struct AnalyzeFinding {
  std::string rule;
  std::string path;
  int line = 0;
  std::string symbol;
  std::string detail;
  /// Supporting frames, root first: "Qualified (path:line)".  Replay-scope
  /// seeds carry the root→seed call chain; rollback findings the mutation
  /// sites; directory-scope seeds none.
  std::vector<std::string> chain;
};

/// One rule of the table.  Determinism rules list the path prefixes
/// (relative, '/'-separated) where a seed fires whether or not a replay
/// root reaches it, and whether replay reachability fires it too.
struct RuleSpec {
  std::string_view id;
  std::string_view summary;
  std::vector<std::string_view> scope;
  std::vector<std::string_view> exclude;  // carved out of `scope`
  bool headers_only = false;              // scope covers .hpp/.h/.hh only
  bool replay = false;                    // fires when a replay root reaches it
};

/// The rule table, in reporting order (drives allow() validation,
/// --list-rules and the docs).
const std::vector<RuleSpec>& analyze_rules();

/// The trees walked by default: by the CLI without subdir arguments, by the
/// `analyze` target and by the whole-tree test.
inline const std::vector<std::string> kDefaultSubdirs = {
    "src", "bench", "tests", "tools", "examples"};

struct AnalyzeResult {
  std::vector<AnalyzeFinding> findings;  // sorted (path, line, rule, symbol)
  std::size_t files_scanned = 0;
  std::size_t symbols_indexed = 0;
  std::size_t classes_indexed = 0;
  std::size_t taint_roots = 0;
};

/// Analyses in-memory files [(logical_path, content)] — the test entry
/// point.  Files are indexed in the given order; the logical path picks the
/// directory scopes.
AnalyzeResult analyze_files(
    const std::vector<std::pair<std::string, std::string>>& files);

/// Analyses the `root`/<subdir> trees on disk (build*/ and fixtures/
/// directories skipped, sorted paths).  Throws std::invalid_argument naming
/// the path when `root` or a subdir is not a directory, so a mistyped walk
/// can never pass as a clean one.
AnalyzeResult analyze_tree(const std::filesystem::path& root,
                           const std::vector<std::string>& subdirs);

/// "path:line: [rule] symbol: detail" plus indented chain frames.
std::string format_finding(const AnalyzeFinding& f);

/// Human-readable report with a `schema_version` header; byte-deterministic
/// for a given tree.
std::string to_text_report(const AnalyzeResult& result);

}  // namespace specana
