#include "scanner.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace specscan {

std::vector<ScannedLine> scan(std::string_view content) {
  std::vector<ScannedLine> lines;
  ScannedLine cur;
  enum class State { Code, BlockComment, String, Char, RawString };
  State state = State::Code;
  std::string raw_delim;   // for raw strings: the ")delim" terminator
  bool preproc = false;    // current logical line is a preprocessor directive
  bool line_has_code = false;

  auto flush_line = [&] {
    // Preprocessor text must not feed the token rules (e.g. `#include <new>`).
    if (preproc) cur.code.assign(cur.code.size(), ' ');
    lines.push_back(std::move(cur));
    cur = ScannedLine{};
    line_has_code = false;
  };

  std::size_t i = 0;
  const std::size_t n = content.size();
  bool continues_preproc = false;
  while (i <= n) {
    if (i == n || content[i] == '\n') {
      // End of physical line: a preprocessor line continues with backslash.
      bool backslash = false;
      if (i > 0) {
        std::size_t j = i;
        while (j > 0 && (content[j - 1] == '\r')) --j;
        backslash = j > 0 && content[j - 1] == '\\';
      }
      continues_preproc = preproc && backslash && state == State::Code;
      flush_line();
      preproc = continues_preproc;
      if (i == n) break;
      ++i;
      continue;
    }
    const char c = content[i];
    const char next = i + 1 < n ? content[i + 1] : '\0';
    switch (state) {
      case State::Code: {
        if (!line_has_code && !preproc) {
          if (std::isspace(static_cast<unsigned char>(c))) {
            cur.code.push_back(' ');
            ++i;
            continue;
          }
          line_has_code = true;
          if (c == '#') preproc = true;
        }
        if (c == '/' && next == '/') {
          // Line comment: capture the text, blank the code.
          std::size_t end = content.find('\n', i);
          if (end == std::string_view::npos) end = n;
          cur.comment.append(content.substr(i + 2, end - i - 2));
          cur.code.append(end - i, ' ');
          i = end;
          continue;
        }
        if (c == '/' && next == '*') {
          state = State::BlockComment;
          cur.code.append(2, ' ');
          i += 2;
          continue;
        }
        if (c == '"') {
          // Raw string?  Look back over the prefix (R, uR, u8R, LR, UR).
          std::size_t p = i;
          bool raw = p > 0 && content[p - 1] == 'R';
          if (raw) {
            // The R must itself start an identifier-ish prefix, not end one
            // (e.g. `macroR"` is not a raw string in practice — good enough).
            std::size_t q = p - 1;
            while (q > 0 && (std::isalnum(static_cast<unsigned char>(
                                 content[q - 1])) ||
                             content[q - 1] == '_'))
              --q;
            const std::string_view prefix = content.substr(q, p - q);
            raw = prefix == "R" || prefix == "uR" || prefix == "u8R" ||
                  prefix == "LR" || prefix == "UR";
          }
          if (raw) {
            std::size_t delim_end = i + 1;
            while (delim_end < n && content[delim_end] != '(') ++delim_end;
            raw_delim.assign(1, ')');
            raw_delim.append(content.substr(i + 1, delim_end - i - 1));
            raw_delim.push_back('"');
            state = State::RawString;
            cur.code.append(delim_end - i + 1 <= n ? delim_end - i + 1 : 1, ' ');
            i = delim_end + 1;
            continue;
          }
          state = State::String;
          cur.code.push_back(' ');
          ++i;
          continue;
        }
        if (c == '\'') {
          // Digit separator / literal suffix (1'000) — not a char literal.
          if (i > 0 && (std::isalnum(static_cast<unsigned char>(
                            content[i - 1])) ||
                        content[i - 1] == '_')) {
            cur.code.push_back(' ');
            ++i;
            continue;
          }
          state = State::Char;
          cur.code.push_back(' ');
          ++i;
          continue;
        }
        cur.code.push_back(c);
        ++i;
        break;
      }
      case State::BlockComment: {
        if (c == '*' && next == '/') {
          state = State::Code;
          cur.code.append(2, ' ');
          i += 2;
        } else {
          cur.comment.push_back(c == '\t' ? ' ' : c);
          cur.code.push_back(' ');
          ++i;
        }
        break;
      }
      case State::String:
      case State::Char: {
        const char quote = state == State::String ? '"' : '\'';
        if (c == '\\') {
          cur.code.append(2, ' ');
          i += 2;
        } else if (c == quote) {
          state = State::Code;
          cur.code.push_back(' ');
          ++i;
        } else {
          cur.code.push_back(' ');
          ++i;
        }
        break;
      }
      case State::RawString: {
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          cur.code.append(raw_delim.size(), ' ');
          i += raw_delim.size();
          state = State::Code;
        } else {
          cur.code.push_back(' ');
          ++i;
        }
        break;
      }
    }
  }
  return lines;
}

std::vector<Token> tokenize(const std::vector<ScannedLine>& lines) {
  std::vector<Token> tokens;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& code = lines[li].code;
    const int line_no = static_cast<int>(li) + 1;
    std::size_t i = 0;
    while (i < code.size()) {
      const char c = code[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::size_t j = i + 1;
        while (j < code.size() && (std::isalnum(static_cast<unsigned char>(
                                       code[j])) ||
                                   code[j] == '_'))
          ++j;
        tokens.push_back({std::string_view(code).substr(i, j - i), line_no});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        std::size_t j = i + 1;
        while (j < code.size() && (std::isalnum(static_cast<unsigned char>(
                                       code[j])) ||
                                   code[j] == '.' || code[j] == '_'))
          ++j;
        i = j;  // numbers never matter to the rules
        continue;
      }
      if (c == ':' && i + 1 < code.size() && code[i + 1] == ':') {
        tokens.push_back({std::string_view(code).substr(i, 2), line_no});
        i += 2;
        continue;
      }
      if (c == '-' && i + 1 < code.size() && code[i + 1] == '>') {
        tokens.push_back({std::string_view(code).substr(i, 2), line_no});
        i += 2;
        continue;
      }
      tokens.push_back({std::string_view(code).substr(i, 1), line_no});
      ++i;
    }
  }
  return tokens;
}

bool is_identifier(std::string_view token) {
  return !token.empty() &&
         (std::isalpha(static_cast<unsigned char>(token[0])) ||
          token[0] == '_');
}

std::vector<std::filesystem::path> collect_sources(
    const std::filesystem::path& root,
    const std::vector<std::string>& subdirs) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(root))
    throw std::invalid_argument(
        std::string("no such directory: ").append(root.string()));
  std::vector<fs::path> paths;
  for (const auto& sub : subdirs) {
    const fs::path dir = root / sub;
    if (!fs::is_directory(dir))
      throw std::invalid_argument(
          std::string("no such directory: ").append(dir.string()));
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      const fs::path& p = it->path();
      const std::string name = p.filename().string();
      if (it->is_directory()) {
        // Skip build trees and test corpora (fixtures are violations on
        // purpose).
        if (name.starts_with("build") || name == "fixtures")
          it.disable_recursion_pending();
        continue;
      }
      const std::string ext = p.extension().string();
      if (ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" ||
          ext == ".hh")
        paths.push_back(p);
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace specscan
