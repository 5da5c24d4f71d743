// Hand-written SQL lexer. Keywords and identifiers are case-insensitive;
// identifiers are normalized to lower case.
#ifndef SUMTAB_SQL_LEXER_H_
#define SUMTAB_SQL_LEXER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace sumtab {
namespace sql {

enum class TokenType {
  kIdentifier,
  kKeyword,     // text holds the lower-cased keyword
  kIntLiteral,
  kDoubleLiteral,
  kStringLiteral,
  kSymbol,      // punctuation / operators, text holds the symbol
  kEnd,
};

struct Token {
  TokenType type;
  std::string text;     // normalized (lower case for ident/keyword)
  int64_t int_value = 0;
  double double_value = 0.0;
  int position = 0;     // byte offset in the input, for error messages
  int slot = -1;        // parameter slot of a lifted literal (Templatize)
};

/// Tokenizes SQL text. Comments ('-- ...' to end of line) are skipped.
StatusOr<std::vector<Token>> Lex(const std::string& input);

/// True if word (lower case) is a reserved keyword.
bool IsKeyword(const std::string& word);

}  // namespace sql
}  // namespace sumtab

#endif  // SUMTAB_SQL_LEXER_H_
