// The C++ source scanner in front of specomp-analyze.
//
// A hand-rolled line scanner blanks comments, string/char literals and
// preprocessor lines before token matching — block comments and raw strings
// carry state across lines — and a small identifier/punctuation tokenizer
// feeds the symbol pass and the seed matchers.  No compiler, no AST, no
// third-party deps: it scans the whole tree in milliseconds and builds
// anywhere a C++20 compiler exists.
//
// Contract notes:
//   * ScannedLine::code is the line with literals/comments/preprocessor
//     text blanked to spaces (so columns still line up with the source);
//     ScannedLine::comment is the concatenated comment text of the line —
//     the directive parser reads it.
//   * Token::text is a string_view into the ScannedLine::code strings; the
//     lines vector must outlive the tokens.
//   * tokenize() emits identifiers and single-char punctuation, with "::"
//     and "->" as single tokens; numbers are dropped (no rule needs them).
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace specscan {

struct ScannedLine {
  std::string code;     // literals and comments blanked to spaces
  std::string comment;  // concatenated comment text of this line
};

/// Splits `content` into scanned lines (1-based line i is lines[i-1]).
std::vector<ScannedLine> scan(std::string_view content);

struct Token {
  std::string_view text;
  int line = 0;  // 1-based
};

/// Tokenizes the blanked code of every line.  Views point into `lines`.
std::vector<Token> tokenize(const std::vector<ScannedLine>& lines);

/// True for a token that could start an identifier ([A-Za-z_]...).
bool is_identifier(std::string_view token);

/// Collects the C++ sources (.cpp/.hpp/.h/.cc/.hh) under `root`/`subdir`
/// for each subdir, skipping build*/ directories and fixtures/ corpora
/// (fixtures violate rules on purpose).  Sorted for deterministic output.
/// Throws std::invalid_argument naming the path when `root` or a subdir is
/// not a directory.
std::vector<std::filesystem::path> collect_sources(
    const std::filesystem::path& root, const std::vector<std::string>& subdirs);

/// Reads a whole file (binary); returns empty string on failure.
std::string read_file(const std::filesystem::path& path);

}  // namespace specscan
