#include "analyze_core.hpp"

#include <algorithm>
#include <cctype>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace specana {

namespace {

using specscan::ScannedLine;
using specscan::Token;

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

// Directories whose code decides virtual time or executes inside the
// deterministic simulation world.  Wall clocks and ambient randomness there
// break run-to-run bit identity whether or not a replay path reaches them.
const std::vector<std::string_view> kDeterministicDirs = {
    "src/des/", "src/runtime/", "src/spec/", "src/nbody/"};

// Directories whose iteration order reaches serialized output or
// virtual-time decisions (the simulation world plus the telemetry
// serializers).  std::map is fine; unordered containers are not.
const std::vector<std::string_view> kOrderSensitiveDirs = {
    "src/des/", "src/runtime/", "src/spec/", "src/nbody/", "src/obs/"};

const std::vector<RuleSpec> kRules = {
    {"wall-clock",
     "wall-clock read (system_clock/steady_clock/time()/clock()/...) in "
     "deterministic simulation code or on a replay path",
     kDeterministicDirs, {}, false, true},
    {"ambient-rand",
     "ambient randomness (rand()/random_device/default-seeded engine) in "
     "deterministic simulation code or on a replay path",
     kDeterministicDirs, {}, false, true},
    {"thread-id",
     "thread identity observed on a replay path — rank must come from the "
     "communicator",
     {}, {}, false, true},
    {"ptr-cast",
     "pointer value converted to an integer on a replay path — addresses "
     "differ across runs",
     {}, {}, false, true},
    {"unordered-iter",
     "iteration over an unordered container in order-sensitive code or on "
     "a replay path — visit order is hash-seed dependent",
     kOrderSensitiveDirs, {}, false, true},
    {"naked-new",
     "naked new/delete outside src/support or on a replay path — own the "
     "allocation with a container, std::unique_ptr or an arena",
     {"src/", "bench/", "tests/"}, {"src/support/"}, false, true},
    {"hot-path-callable",
     "std::function/std::bind in a DES hot-path header (regresses the "
     "allocation-free event arena; use des::EventFn or a template parameter)",
     // Trace/distribution emission sits on the send/recv/compute hot paths,
     // so its headers get the same no-type-erased-callables discipline, as
     // do the collectives (every hop is a hot-path send/recv), the force
     // kernels (the per-pair inner loops), and the integrator family
     // (invoked once per stage per step, with the force model on the stack).
     // (runtime/communicator.hpp stays out: RankBody is std::function by
     // design — it is invoked once per rank, not per event.)
     {"src/des/", "src/obs/dist_sketch", "src/obs/trace_export",
      "src/runtime/collective", "src/nbody/kernels/",
      "src/nbody/integrators/"},
     {}, true, false},
    {"rollback-unsaved-field",
     "member mutated by the step/install/correct path but not covered by "
     "save_state/restore_state/pack_local",
     {}, {}, false, false},
    {"rollback-static",
     "static or mutable state touched by a rollback-scoped method — shared "
     "across snapshots, escapes restore_state",
     {}, {}, false, false},
    {"rollback-io",
     "file I/O inside a rollback-scoped method — externally visible effects "
     "cannot be rolled back",
     {}, {}, false, false},
    {"rollback-rng",
     "RNG advanced inside a rollback-scoped method — stream position escapes "
     "the snapshot",
     {}, {}, false, false},
    {"bad-annotation",
     "malformed specomp: directive (unknown rule id, unknown form, or "
     "missing justification)",
     {}, {}, false, false},
};

const RuleSpec* find_rule(std::string_view id) {
  for (const auto& r : kRules)
    if (r.id == id) return &r;
  return nullptr;
}

bool is_header(std::string_view path) {
  return path.ends_with(".hpp") || path.ends_with(".h") ||
         path.ends_with(".hh");
}

// The prefix of `rule`'s directory scope that covers `path`, or "" when the
// path lies outside it.
std::string_view scope_prefix(const RuleSpec& rule, std::string_view path) {
  if (rule.headers_only && !is_header(path)) return {};
  for (const std::string_view ex : rule.exclude)
    if (path.starts_with(ex)) return {};
  for (const std::string_view p : rule.scope)
    if (path.starts_with(p)) return p;
  return {};
}

// ---------------------------------------------------------------------------
// Seed vocabularies
// ---------------------------------------------------------------------------

const std::set<std::string_view> kClockIdents = {
    "system_clock",  "steady_clock",  "high_resolution_clock",
    "gettimeofday",  "clock_gettime", "localtime",
    "gmtime",        "timespec_get",  "mktime"};

const std::set<std::string_view> kRandCalls = {"rand", "srand", "drand48",
                                               "lrand48", "mrand48"};

const std::set<std::string_view> kEngines = {
    "mt19937",  "mt19937_64", "minstd_rand",           "minstd_rand0",
    "ranlux24", "ranlux48",   "default_random_engine", "knuth_b"};

const std::set<std::string_view> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

const std::set<std::string_view> kMutatingMembers = {
    "push_back", "pop_back", "emplace_back", "emplace", "clear",  "resize",
    "reserve",   "assign",   "insert",       "erase",   "swap",   "push",
    "pop",       "fill",     "shrink_to_fit"};

const std::set<std::string_view> kIoIdents = {
    "ofstream", "fstream", "fopen", "fwrite", "fprintf", "fputs", "FILE"};

// Keywords that can legitimately precede a call expression; any other
// preceding identifier means `name(` is a declaration (`VectorClock
// clock(int)`), not a call to the libc function.
const std::set<std::string_view> kCallPrecedingKeywords = {
    "return", "co_return", "co_yield", "case", "throw", "else", "do"};

// ---------------------------------------------------------------------------
// Annotations: specomp: pure / rollback-covered(field): why / allow(rule): why
// ---------------------------------------------------------------------------

struct FileAnnotations {
  // line -> rule ids allowed on that line and the next.
  std::map<int, std::set<std::string>> allows;
  std::set<int> pure_lines;
  std::vector<std::pair<int, std::string>> covered;  // (line, field)
  std::vector<AnalyzeFinding> bad;

  bool allowed(int line, std::string_view rule) const {
    for (const int l : {line, line - 1}) {
      const auto it = allows.find(l);
      if (it != allows.end() && it->second.count(std::string(rule)) != 0)
        return true;
    }
    return false;
  }
};

// Extracts comma-separated ids from "...(a, b)" starting after the '('.
// Returns npos-terminated ids and sets `close` to the ')' position (npos if
// unterminated).
std::vector<std::string> parse_id_list(const std::string& text,
                                       std::size_t open,
                                       std::size_t& close) {
  close = text.find(')', open);
  std::vector<std::string> ids;
  if (close == std::string::npos) return ids;
  std::string id;
  for (std::size_t j = open; j < close; ++j) {
    const char c = text[j];
    if (c == ',') {
      ids.push_back(id);
      id.clear();
    } else if (c != ' ') {
      id.push_back(c);
    }
  }
  ids.push_back(id);
  return ids;
}

// Is there a non-empty justification ": why" starting at `k`?
bool has_justification(const std::string& text, std::size_t k) {
  while (k < text.size() && text[k] == ' ') ++k;
  if (k >= text.size() || text[k] != ':') return false;
  ++k;
  while (k < text.size() && text[k] == ' ') ++k;
  return k < text.size();
}

FileAnnotations parse_annotations(std::string_view path,
                                  const std::vector<ScannedLine>& lines) {
  FileAnnotations a;
  constexpr std::string_view kDirective = "specomp:";
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& comment = lines[li].comment;
    const int line_no = static_cast<int>(li) + 1;
    std::size_t pos = comment.find(kDirective);
    while (pos != std::string::npos) {
      // Reject prose matches: "specomp::obs" is a namespace, not a directive.
      if (pos + kDirective.size() < comment.size() &&
          comment[pos + kDirective.size()] == ':') {
        pos = comment.find(kDirective, pos + kDirective.size() + 1);
        continue;
      }
      std::size_t i = pos + kDirective.size();
      auto fail = [&](const std::string& why) {
        a.bad.push_back({"bad-annotation", std::string(path), line_no,
                         std::string{}, why, {}});
      };
      while (i < comment.size() && comment[i] == ' ') ++i;
      if (comment.compare(i, 4, "pure") == 0 &&
          (i + 4 == comment.size() ||
           (!std::isalnum(static_cast<unsigned char>(comment[i + 4])) &&
            comment[i + 4] != '_' && comment[i + 4] != '('))) {
        a.pure_lines.insert(line_no);  // justification optional
        pos = comment.find(kDirective, i + 4);
        continue;
      }
      if (comment.compare(i, 6, "allow(") == 0) {
        std::size_t close = std::string::npos;
        const auto ids = parse_id_list(comment, i + 6, close);
        if (close == std::string::npos) {
          fail("unterminated allow( — missing ')'");
          break;
        }
        bool ok = true;
        for (const auto& id : ids) {
          if (id.empty() || find_rule(id) == nullptr) {
            fail("unknown rule id '" + id + "' in specomp: allow(...)");
            ok = false;
          }
        }
        if (!has_justification(comment, close + 1)) {
          fail("allow(...) needs a justification: '// specomp: "
               "allow(<rule>): <why this is safe>'");
          ok = false;
        }
        if (ok)
          for (const auto& id : ids) a.allows[line_no].insert(id);
        pos = comment.find(kDirective, close);
        continue;
      }
      if (comment.compare(i, 17, "rollback-covered(") == 0) {
        std::size_t close = std::string::npos;
        const auto ids = parse_id_list(comment, i + 17, close);
        if (close == std::string::npos) {
          fail("unterminated rollback-covered( — missing ')'");
          break;
        }
        bool ok = ids.size() == 1 && !ids[0].empty();
        if (!ok) fail("rollback-covered(...) names exactly one field");
        if (!has_justification(comment, close + 1)) {
          fail("rollback-covered(...) needs a justification: '// specomp: "
               "rollback-covered(<field>): <why replay is safe>'");
          ok = false;
        }
        if (ok) a.covered.emplace_back(line_no, ids[0]);
        pos = comment.find(kDirective, close);
        continue;
      }
      fail("directive must be 'specomp: pure', 'specomp: allow(<rule>): "
           "<why>' or 'specomp: rollback-covered(<field>): <why>'");
      break;
    }
  }
  return a;
}

// ---------------------------------------------------------------------------
// Seeds: one matcher per determinism rule, over the whole file
// ---------------------------------------------------------------------------

struct Seed {
  std::string_view rule;
  std::string token;  // what matched, for the message
  int line = 0;
  bool in_body = false;
  std::size_t symbol = 0;  // enclosing symbol (global index) when in_body
};

// Maps a token index to the symbol whose body contains it, via the sorted
// disjoint [tok_begin, tok_end) ranges of the file's symbols.
class BodyMap {
 public:
  BodyMap(const FileIndex& file, const std::vector<Symbol>& symbols) {
    for (const std::size_t s : file.symbols)
      ranges_.push_back({symbols[s].tok_begin, symbols[s].tok_end, s});
  }
  /// Returns true and sets `sym` when token `i` lies inside a body.
  bool enclosing(std::size_t i, std::size_t& sym) const {
    for (const auto& r : ranges_) {
      if (i < r.begin) return false;  // ranges are ascending
      if (i < r.end) {
        sym = r.sym;
        return true;
      }
    }
    return false;
  }

 private:
  struct Range {
    std::size_t begin, end, sym;
  };
  std::vector<Range> ranges_;
};

/// Token-stream view shared by the seed matchers and the rollback pass.
struct Tokens {
  const std::vector<Token>& toks;

  std::string_view operator()(std::size_t i) const {
    return i < toks.size() ? toks[i].text : std::string_view{};
  }
  std::string_view prev(std::size_t i) const {
    return i > 0 ? (*this)(i - 1) : std::string_view{};
  }

  /// `rand()`-family call or std::random_device: the ambient PRNGs.  A
  /// member call (`eng.rand()`) is some other object's method.
  bool ambient_rng(std::size_t i) const {
    const std::string_view t = (*this)(i);
    if (t == "random_device") return true;
    return kRandCalls.count(t) != 0 && (*this)(i + 1) == "(" &&
           prev(i) != "." && prev(i) != "->";
  }

  /// `std::mt19937 gen;` / `std::mt19937 gen{};` — default seed, so every
  /// build/library combination rolls different streams.
  bool default_seeded_engine(std::size_t i) const {
    if (kEngines.count((*this)(i)) == 0 ||
        !specscan::is_identifier((*this)(i + 1)))
      return false;
    const std::string_view after = (*this)(i + 2);
    return after == ";" || (after == "{" && (*this)(i + 3) == "}");
  }

  /// A call to the libc `time()` / `clock()`: not a member
  /// (`HbChecker::clock(r)`, `sim.time()`) and not a declaration.
  bool libc_time_call(std::size_t i) const {
    const std::string_view t = (*this)(i);
    if ((t != "time" && t != "clock") || (*this)(i + 1) != "(") return false;
    const std::string_view p = prev(i);
    if (p.empty()) return true;
    if (p == "." || p == "->") return false;
    if (p == "::") return i >= 2 && (*this)(i - 2) == "std";
    return !specscan::is_identifier(p) || kCallPrecedingKeywords.count(p) != 0;
  }

  /// The variable a `std::unordered_*<...>` type at `i` declares, if any:
  /// locals, members and parameters (`const std::unordered_map<K, V>& m`).
  std::string_view declared_name(std::size_t i) const {
    std::size_t j = i + 1;
    if ((*this)(j) == "<") {
      int depth = 1;
      ++j;
      while (j < toks.size() && depth > 0) {
        if ((*this)(j) == "<") ++depth;
        if ((*this)(j) == ">") --depth;
        ++j;
      }
    }
    while ((*this)(j) == "&" || (*this)(j) == "&&" || (*this)(j) == "*" ||
           (*this)(j) == "const")
      ++j;
    return specscan::is_identifier((*this)(j)) ? (*this)(j)
                                               : std::string_view{};
  }
};

void collect_seeds(const FileIndex& file, const std::vector<Symbol>& symbols,
                   std::vector<Seed>& out) {
  const BodyMap bodies(file, symbols);
  const Tokens tok{file.tokens};
  const std::size_t n = file.tokens.size();
  auto add = [&](std::size_t at, std::string_view rule, std::string token) {
    Seed s{rule, std::move(token), file.tokens[at].line, false, 0};
    s.in_body = bodies.enclosing(at, s.symbol);
    out.push_back(std::move(s));
  };

  // Names declared with an unordered container type anywhere in the file,
  // and the bodies that mention such a type; both feed unordered-iter.
  std::set<std::string_view> unordered_vars;
  std::set<std::size_t> unordered_bodies;

  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view t = tok(i);
    const std::string_view prev = tok.prev(i);
    if (kClockIdents.count(t) != 0) {
      add(i, "wall-clock", std::string(t));
    } else if (tok.libc_time_call(i)) {
      add(i, "wall-clock", std::string(t) + "()");
    } else if (tok.ambient_rng(i)) {
      add(i, "ambient-rand", std::string(t));
    } else if (tok.default_seeded_engine(i)) {
      add(i, "ambient-rand", std::string("default-seeded ").append(t));
    } else if (t == "get_id" && tok(i + 1) == "(") {
      add(i, "thread-id", std::string(t));
    } else if (t == "uintptr_t" || t == "intptr_t") {
      add(i, "ptr-cast", std::string(t));
    } else if (t == "new" && tok(i + 1) != "(" && prev != "operator") {
      add(i, "naked-new", "new");  // `new (buf) T` is placement: exempt
    } else if (t == "delete" && prev != "=" && prev != "operator") {
      add(i, "naked-new", "delete");  // `= delete` declares, not frees
    } else if (t == "std" && tok(i + 1) == "::" &&
               (tok(i + 2) == "function" || tok(i + 2) == "bind")) {
      add(i + 2, "hot-path-callable", std::string("std::").append(tok(i + 2)));
    } else if (kUnorderedContainers.count(t) != 0) {
      std::size_t sym = 0;
      if (bodies.enclosing(i, sym)) unordered_bodies.insert(sym);
      if (const std::string_view name = tok.declared_name(i); !name.empty())
        unordered_vars.insert(name);
    }
  }
  if (unordered_vars.empty() && unordered_bodies.empty()) return;

  // Range-for over a declared unordered container, or anywhere in a body
  // that mentions one: the visit order is hash-seed (and address)
  // dependent.  A sorted snapshot breaks the pattern, and a false pairing
  // is silenced with `// specomp: allow(unordered-iter): <why>`.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (tok(i) != "for" || tok(i + 1) != "(") continue;
    int depth = 0;
    std::size_t colon = 0, close = i + 1;
    for (; close < n; ++close) {
      if (tok(close) == "(") ++depth;
      else if (tok(close) == ")" && --depth == 0) break;
      else if (tok(close) == ":" && depth == 1 && colon == 0) colon = close;
    }
    if (colon == 0) continue;
    std::size_t sym = 0;
    bool hit = bodies.enclosing(i, sym) && unordered_bodies.count(sym) != 0;
    for (std::size_t k = colon + 1; !hit && k < close; ++k)
      hit = unordered_vars.count(tok(k)) != 0;
    if (hit) add(i, "unordered-iter", "for(:)");
  }
  // Iterator walks over a declared unordered container (`m.begin()`).
  for (std::size_t i = 0; i + 3 < n; ++i) {
    const std::string_view walk = tok(i + 2);
    if (unordered_vars.count(tok(i)) != 0 &&
        (tok(i + 1) == "." || tok(i + 1) == "->") &&
        (walk == "begin" || walk == "cbegin" || walk == "rbegin") &&
        tok(i + 3) == "(")
      add(i, "unordered-iter",
          std::string(tok(i)).append(".").append(walk).append("()"));
  }
}

// ---------------------------------------------------------------------------
// Member-field mutation detection (rollback pass)
// ---------------------------------------------------------------------------

struct Mutation {
  std::string field;
  int line = 0;
  std::string how;
};

const std::set<std::string_view> kCompoundOps = {"+", "-", "*", "/",
                                                 "%", "&", "|", "^"};

void collect_mutations(const FileIndex& file, const Symbol& sym,
                       const std::set<std::string>& fields,
                       std::vector<Mutation>& out) {
  const auto& toks = file.tokens;
  const auto tok = [&](std::size_t i) {
    return i < toks.size() ? toks[i].text : std::string_view{};
  };
  for (std::size_t i = sym.tok_begin; i < sym.tok_end && i < toks.size();
       ++i) {
    const std::string_view t = toks[i].text;
    if (fields.count(std::string(t)) == 0) continue;
    const std::string_view prev = i > 0 ? tok(i - 1) : std::string_view{};
    // Member of another object (`peer.pos_`) or qualified name: the
    // snapshot only covers *this*; skip unless explicitly `this->field`.
    if ((prev == "." || prev == "->") && (i < 2 || tok(i - 2) != "this"))
      continue;
    if (prev == "::") continue;
    auto add = [&](std::string how) {
      out.push_back({std::string(t), toks[i].line, std::move(how)});
    };
    // Prefix ++/--.
    if (i >= 2 && ((prev == "+" && tok(i - 2) == "+") ||
                   (prev == "-" && tok(i - 2) == "-"))) {
      add("incremented");
      continue;
    }
    // Skip subscripts: `pos_[i] = ...` mutates pos_.
    std::size_t j = i + 1;
    while (tok(j) == "[") {
      int depth = 0;
      while (j < toks.size()) {
        if (tok(j) == "[") ++depth;
        else if (tok(j) == "]" && --depth == 0) {
          ++j;
          break;
        }
        ++j;
      }
    }
    const std::string_view a = tok(j);
    const std::string_view b = tok(j + 1);
    if (a == "=" && b != "=") {
      add("assigned");
    } else if (kCompoundOps.count(a) != 0 && b == "=" && tok(j + 2) != "=") {
      add("compound-assigned");
    } else if ((a == "+" && b == "+") || (a == "-" && b == "-")) {
      add("incremented");
    } else if ((a == "<" && b == "<" && tok(j + 2) == "=") ||
               (a == ">" && b == ">" && tok(j + 2) == "=")) {
      add("compound-assigned");
    } else if ((a == "." || a == "->") && tok(j + 2) == "(") {
      if (kMutatingMembers.count(b) != 0)
        add("mutating call '." + std::string(b) + "()'");
      else if (b == "data")
        add("mutable buffer handle '.data()'");
    } else if ((prev == "(" || prev == ",") && (a == "," || a == ")")) {
      add("passed by reference to a call");
    }
  }
}

// ---------------------------------------------------------------------------
// The analysis driver
// ---------------------------------------------------------------------------

struct Analyzer {
  SymbolTable table;
  std::map<std::string, FileAnnotations> annotations;  // by path
  std::map<std::string, std::size_t> file_by_path;
  AnalyzeResult result;

  void add_file(const std::string& path, std::string_view content) {
    table.add_file(path, content);
    const FileIndex& file = table.files().back();
    annotations.emplace(file.path,
                        parse_annotations(file.path, file.lines));
    file_by_path.emplace(file.path, table.files().size() - 1);
  }

  bool is_pure(const Symbol& s) const {
    const auto it = annotations.find(s.path);
    if (it == annotations.end()) return false;
    const int hi = std::max(s.line, s.body_open_line);
    for (int l = s.line - 2; l <= hi; ++l)
      if (it->second.pure_lines.count(l) != 0) return true;
    return false;
  }

  const FileAnnotations& ann_for(const std::string& path) const {
    static const FileAnnotations kEmpty;
    const auto it = annotations.find(path);
    return it == annotations.end() ? kEmpty : it->second;
  }

  void run() {
    result.symbols_indexed = table.symbols().size();
    result.classes_indexed = table.classes().size();
    for (const auto& [path, ann] : annotations)
      for (const auto& f : ann.bad) result.findings.push_back(f);
    seed_pass();
    rollback_pass();
    std::sort(result.findings.begin(), result.findings.end(),
              [](const AnalyzeFinding& x, const AnalyzeFinding& y) {
                return std::tie(x.path, x.line, x.rule, x.symbol, x.detail) <
                       std::tie(y.path, y.line, y.rule, y.symbol, y.detail);
              });
    result.findings.erase(
        std::unique(result.findings.begin(), result.findings.end(),
                    [](const AnalyzeFinding& x, const AnalyzeFinding& y) {
                      return x.path == y.path && x.line == y.line &&
                             x.rule == y.rule && x.symbol == y.symbol &&
                             x.detail == y.detail;
                    }),
        result.findings.end());
  }

  // ---- seeds: directory scope and replay scope ----

  std::vector<std::string> root_owners() const {
    // Engine, DES kernel, communicators and mailboxes drive speculation,
    // checking and replay; every SyncIterativeApp implementation is called
    // from the replay loop.
    std::vector<std::string> owners = {"SpecEngine", "Kernel",
                                       "SimCommunicator",
                                       "ThreadCommunicator", "TimedMailbox"};
    for (const ClassInfo* c : table.derived_from("SyncIterativeApp"))
      owners.push_back(c->name);
    std::sort(owners.begin(), owners.end());
    owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
    return owners;
  }

  void seed_pass() {
    const auto& symbols = table.symbols();
    const std::vector<std::string> owners = root_owners();
    const std::set<std::string> owner_set(owners.begin(), owners.end());

    // BFS from the replay roots; `specomp: pure` symbols are barriers.
    constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
    std::vector<std::size_t> parent(symbols.size(), kNoParent);
    std::vector<bool> reached(symbols.size(), false);
    std::deque<std::size_t> queue;
    for (std::size_t s = 0; s < symbols.size(); ++s) {
      if (owner_set.count(symbols[s].owner) == 0) continue;
      if (is_pure(symbols[s])) continue;
      reached[s] = true;
      queue.push_back(s);
      ++result.taint_roots;
    }
    while (!queue.empty()) {
      const std::size_t s = queue.front();
      queue.pop_front();
      for (const auto& callee : symbols[s].calls) {
        for (const std::size_t c : table.by_name(callee)) {
          if (reached[c] || is_pure(symbols[c])) continue;
          reached[c] = true;
          parent[c] = s;
          queue.push_back(c);
        }
      }
    }

    // A seed in a reached function reports its root→…→seed chain; any other
    // seed fires only inside its rule's directory scope.  One finding per
    // (path, line, rule): the chained one wins over a scope-only one.
    std::map<std::tuple<std::string, int, std::string_view>, AnalyzeFinding>
        by_site;
    for (const auto& file : table.files()) {
      const FileAnnotations& ann = ann_for(file.path);
      std::vector<Seed> seeds;
      collect_seeds(file, symbols, seeds);
      for (const Seed& seed : seeds) {
        if (ann.allowed(seed.line, seed.rule)) continue;
        const RuleSpec& rule = *find_rule(seed.rule);
        AnalyzeFinding f;
        f.rule = std::string(rule.id);
        f.path = file.path;
        f.line = seed.line;
        if (seed.in_body) f.symbol = symbols[seed.symbol].qualified();
        if (rule.replay && seed.in_body && reached[seed.symbol]) {
          for (std::size_t s = seed.symbol; s != kNoParent; s = parent[s])
            f.chain.push_back(symbols[s].qualified() + " (" +
                              symbols[s].path + ":" +
                              std::to_string(symbols[s].line) + ")");
          std::reverse(f.chain.begin(), f.chain.end());
          const std::string root =
              f.chain.front().substr(0, f.chain.front().find(" ("));
          f.detail = "'" + seed.token + "' reachable from replay root " + root;
        } else if (const std::string_view prefix =
                       scope_prefix(rule, file.path);
                   !prefix.empty()) {
          f.detail = ("'" + seed.token + "' in scope ").append(prefix);
        } else {
          continue;
        }
        auto [it, fresh] =
            by_site.try_emplace({f.path, f.line, rule.id}, f);
        if (!fresh && it->second.chain.empty() && !f.chain.empty())
          it->second = std::move(f);
      }
    }
    for (auto& [site, f] : by_site) result.findings.push_back(std::move(f));
  }

  // ---- rollback safety ----

  // Closure of symbols owned by `cls` reachable from the named entry
  // methods via same-class calls, in deterministic index order.
  std::vector<std::size_t> method_closure(
      const std::string& cls, const std::set<std::string>& entries) const {
    const auto& symbols = table.symbols();
    std::set<std::size_t> seen;
    std::deque<std::size_t> queue;
    for (const std::size_t s : table.methods_of(cls))
      if (entries.count(symbols[s].name) != 0 && seen.insert(s).second)
        queue.push_back(s);
    while (!queue.empty()) {
      const std::size_t s = queue.front();
      queue.pop_front();
      for (const auto& callee : symbols[s].calls)
        for (const std::size_t c : table.by_name(callee))
          if (symbols[c].owner == cls && seen.insert(c).second)
            queue.push_back(c);
    }
    return {seen.begin(), seen.end()};
  }

  void rollback_pass() {
    const auto& symbols = table.symbols();
    const std::set<std::string> kMutators = {"compute_step", "install_peer",
                                             "correct_last_step"};
    const std::set<std::string> kSavers = {"pack_local", "save_state",
                                           "restore_state"};
    for (const ClassInfo* cls : table.derived_from("SyncIterativeApp")) {
      if (cls->name == "SyncIterativeApp") continue;
      const auto mutators = method_closure(cls->name, kMutators);
      if (mutators.empty()) continue;  // abstract / helper base
      const auto savers = method_closure(cls->name, kSavers);

      std::set<std::string> field_names;
      for (const auto& f : cls->fields) field_names.insert(f.name);

      // Fields referenced anywhere in the save/restore/pack closure are
      // covered (loose on purpose: coverage over-approximates toward *not*
      // flagging).
      std::set<std::string> covered;
      for (const std::size_t s : savers) {
        const auto fit = file_by_path.find(symbols[s].path);
        if (fit == file_by_path.end()) continue;
        const FileIndex& file = table.files()[fit->second];
        for (std::size_t i = symbols[s].tok_begin;
             i < symbols[s].tok_end && i < file.tokens.size(); ++i) {
          const std::string t(file.tokens[i].text);
          if (field_names.count(t) != 0) covered.insert(t);
        }
      }
      // `// specomp: rollback-covered(field): why` on the field declaration
      // or in the comment block up to three lines above it.
      const FileAnnotations& cls_ann = ann_for(cls->path);
      for (const auto& f : cls->fields)
        for (const auto& [line, name] : cls_ann.covered)
          if (name == f.name && line >= f.line - 3 && line <= f.line)
            covered.insert(f.name);

      std::map<std::string, std::vector<std::pair<std::size_t, Mutation>>>
          mutated;  // field -> (symbol, site)
      for (const std::size_t s : mutators) {
        const auto fit = file_by_path.find(symbols[s].path);
        if (fit == file_by_path.end()) continue;
        const FileIndex& file = table.files()[fit->second];
        std::vector<Mutation> muts;
        collect_mutations(file, symbols[s], field_names, muts);
        for (auto& m : muts) mutated[m.field].emplace_back(s, std::move(m));
        scan_body_escapes(file, symbols[s]);
      }

      const std::map<std::string, const Field*> field_info = [&] {
        std::map<std::string, const Field*> m;
        for (const auto& f : cls->fields) m.emplace(f.name, &f);
        return m;
      }();
      for (const auto& [field, sites] : mutated) {
        const Field* info = field_info.at(field);
        std::vector<std::string> chain;
        std::set<std::string> via;
        for (const auto& [s, m] : sites) {
          if (chain.size() < 4)
            chain.push_back(symbols[s].qualified() + " (" + symbols[s].path +
                            ":" + std::to_string(m.line) + ") — " + m.how);
          via.insert(symbols[s].name);
        }
        std::string methods;
        for (const auto& v : via) methods += (methods.empty() ? "" : "/") + v;
        if (info->is_static || info->is_mutable) {
          if (!cls_ann.allowed(info->line, "rollback-static"))
            result.findings.push_back(
                {"rollback-static", cls->path, info->line,
                 cls->name + "::" + field,
                 std::string(info->is_static ? "static" : "mutable") +
                     " member '" + field + "' mutated by " + methods +
                     " — shared across snapshots, restore_state cannot "
                     "rewind it",
                 chain});
          continue;
        }
        if (covered.count(field) != 0) continue;
        if (cls_ann.allowed(info->line, "rollback-unsaved-field")) continue;
        result.findings.push_back(
            {"rollback-unsaved-field", cls->path, info->line,
             cls->name + "::" + field,
             "field '" + field + "' mutated by " + methods +
                 " but never referenced by "
                 "save_state/restore_state/pack_local — state escapes "
                 "rollback",
             chain});
      }
    }
  }

  // Static locals, file I/O and RNG advancement inside a rollback-scoped
  // method body.
  void scan_body_escapes(const FileIndex& file, const Symbol& sym) {
    const FileAnnotations& ann = ann_for(file.path);
    const Tokens tok{file.tokens};
    auto add = [&](std::string_view rule, int line, std::string detail) {
      if (ann.allowed(line, rule)) return;
      result.findings.push_back({std::string(rule), file.path, line,
                                 sym.qualified(), std::move(detail), {}});
    };
    for (std::size_t i = sym.tok_begin;
         i < sym.tok_end && i < file.tokens.size(); ++i) {
      const std::string_view t = tok(i);
      const int line = file.tokens[i].line;
      if (t == "static" && tok(i + 1) != "const" &&
          tok(i + 1) != "constexpr" && tok(i + 2) != "const" &&
          tok(i + 2) != "constexpr") {
        add("rollback-static", line,
            "static local state in rollback-scoped method " +
                sym.qualified() + " — survives restore_state");
      } else if (kIoIdents.count(t) != 0) {
        add("rollback-io", line,
            "file I/O '" + std::string(t) + "' in rollback-scoped method " +
                sym.qualified() + " — effects are not rolled back");
      } else if (tok.ambient_rng(i)) {
        add("rollback-rng", line,
            "RNG '" + std::string(t) + "' advanced in rollback-scoped "
            "method " + sym.qualified() + " — stream position escapes the "
            "snapshot");
      }
    }
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const std::vector<RuleSpec>& analyze_rules() { return kRules; }

AnalyzeResult analyze_files(
    const std::vector<std::pair<std::string, std::string>>& files) {
  Analyzer a;
  for (const auto& [path, content] : files) a.add_file(path, content);
  a.result.files_scanned = files.size();
  a.run();
  return std::move(a.result);
}

AnalyzeResult analyze_tree(const std::filesystem::path& root,
                           const std::vector<std::string>& subdirs) {
  namespace fs = std::filesystem;
  Analyzer a;
  const std::vector<fs::path> paths =
      specscan::collect_sources(root, subdirs);
  for (const auto& p : paths)
    a.add_file(fs::relative(p, root).generic_string(),
               specscan::read_file(p));
  a.result.files_scanned = paths.size();
  a.run();
  return std::move(a.result);
}

std::string format_finding(const AnalyzeFinding& f) {
  std::string out = f.path + ":" + std::to_string(f.line) + ": [" + f.rule +
                    "] " + (f.symbol.empty() ? "" : f.symbol + ": ") +
                    f.detail;
  for (const auto& frame : f.chain) out += "\n    via " + frame;
  return out;
}

std::string to_text_report(const AnalyzeResult& result) {
  std::ostringstream os;
  os << "# specomp-analyze report\n"
     << "# schema_version: 2\n"
     << "# files=" << result.files_scanned
     << " symbols=" << result.symbols_indexed
     << " classes=" << result.classes_indexed
     << " roots=" << result.taint_roots
     << " findings=" << result.findings.size() << "\n";
  if (result.findings.empty()) {
    os << "clean: no findings\n";
    return os.str();
  }
  for (const auto& f : result.findings) os << format_finding(f) << "\n";
  return os.str();
}

}  // namespace specana
