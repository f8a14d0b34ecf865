// specomp-analyze CLI — the repo's static checker: determinism seeds in
// their directory scopes and on replay paths, plus rollback safety (see
// analyze_core.hpp).
//
//   $ specomp-analyze --root .        # walks src bench tests tools examples
//   $ specomp-analyze --root . --out analyze-report.txt src/spec
//   $ specomp-analyze --list-rules
//
// Exit status: 0 clean, 1 findings, 2 usage/IO error (a missing root or
// subdir included, so a mistyped walk never passes as a clean one).  The
// report is written atomically (stage + rename) so a crashed run never
// leaves a truncated artifact for CI to upload.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze_core.hpp"
#include "obs/atomic_file.hpp"

namespace {

void print_rules() {
  std::printf("specomp-analyze rules:\n");
  for (const auto& rule : specana::analyze_rules()) {
    std::printf("  %-24s %s\n", std::string(rule.id).c_str(),
                std::string(rule.summary).c_str());
    if (!rule.scope.empty()) {
      std::printf("  %-24s   scope:", "");
      for (const auto& p : rule.scope)
        std::printf(" %s", std::string(p).c_str());
      for (const auto& p : rule.exclude)
        std::printf(" -%s", std::string(p).c_str());
      if (rule.headers_only) std::printf(" (headers only)");
      std::printf("\n");
    }
  }
  std::printf(
      "\nsuppress with: // specomp: allow(<rule>): <justification>\n"
      "               // specomp: pure\n"
      "               // specomp: rollback-covered(<field>): <why>\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string out_path;
  std::vector<std::string> subdirs;
  auto flag_value = [&](const std::string& arg, const char* name,
                        std::string& dst, int& i) {
    const std::string eq = std::string(name) + "=";
    if (arg == name && i + 1 < argc) {
      dst = argv[++i];
      return true;
    }
    if (arg.rfind(eq, 0) == 0) {
      dst = arg.substr(eq.size());
      return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      print_rules();
      return 0;
    }
    if (flag_value(arg, "--root", root, i)) continue;
    if (flag_value(arg, "--out", out_path, i)) continue;
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "usage: specomp-analyze [--root DIR] [--out FILE] "
                   "[--list-rules] [subdir...]\n");
      return 2;
    }
    subdirs.push_back(arg);
  }
  if (subdirs.empty()) subdirs = specana::kDefaultSubdirs;

  specana::AnalyzeResult result;
  try {
    result = specana::analyze_tree(root, subdirs);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "specomp-analyze: %s\n", e.what());
    return 2;
  }

  const std::string report = specana::to_text_report(result);
  std::fputs(report.c_str(), result.findings.empty() ? stdout : stderr);
  if (!out_path.empty() &&
      !specomp::obs::atomic_write_file(out_path, report)) {
    std::fprintf(stderr, "specomp-analyze: cannot write %s\n",
                 out_path.c_str());
    return 2;
  }
  return result.findings.empty() ? 0 : 1;
}
