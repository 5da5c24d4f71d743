#include "sql/lexer.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cstring>
#include <string_view>

namespace sumtab {
namespace sql {

namespace {

constexpr std::array<std::string_view, 28> kKeywords = {
    "select", "from",     "where",  "group",    "by",       "having",
    "order",  "as",       "and",    "or",       "not",      "is",
    "null",   "distinct", "asc",    "desc",     "rollup",   "cube",
    "grouping", "sets",   "date",   "count",    "sum",      "min",
    "max",    "avg",      "in",     "between",
};

}  // namespace

bool IsKeyword(const std::string& word) {
  for (std::string_view kw : kKeywords) {
    if (word == kw) return true;
  }
  return false;
}

StatusOr<std::vector<Token>> Lex(const std::string& input) {
  std::vector<Token> tokens;
  tokens.reserve(input.size() / 4 + 1);
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    Token tok;
    tok.position = static_cast<int>(i);
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(input[i])) ||
                       input[i] == '_')) {
        ++i;
      }
      tok.text.reserve(i - start);
      for (size_t k = start; k < i; ++k) {
        tok.text += static_cast<char>(
            std::tolower(static_cast<unsigned char>(input[k])));
      }
      tok.type = IsKeyword(tok.text) ? TokenType::kKeyword
                                     : TokenType::kIdentifier;
      tokens.push_back(std::move(tok));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      bool is_double = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      if (i < n && input[i] == '.' && i + 1 < n &&
          std::isdigit(static_cast<unsigned char>(input[i + 1]))) {
        is_double = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) {
          ++i;
        }
      }
      tok.text = input.substr(start, i - start);
      const char* first = input.data() + start;
      const char* last = input.data() + i;
      std::from_chars_result parsed =
          is_double ? std::from_chars(first, last, tok.double_value)
                    : std::from_chars(first, last, tok.int_value);
      if (parsed.ec != std::errc()) {
        return Status::InvalidArgument(
            "numeric literal out of range at offset " +
            std::to_string(tok.position));
      }
      tok.type = is_double ? TokenType::kDoubleLiteral : TokenType::kIntLiteral;
      tokens.push_back(std::move(tok));
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string text;
      bool closed = false;
      while (i < n) {
        if (input[i] == '\'') {
          if (i + 1 < n && input[i + 1] == '\'') {  // escaped quote
            text += '\'';
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        text += input[i];
        ++i;
      }
      if (!closed) {
        return Status::InvalidArgument("unterminated string literal at offset " +
                                       std::to_string(tok.position));
      }
      tok.type = TokenType::kStringLiteral;
      tok.text = std::move(text);
      tokens.push_back(std::move(tok));
      continue;
    }
    // Multi-char operators.
    auto two = [&](const char* symbol) {
      return i + 1 < n && input[i] == symbol[0] && input[i + 1] == symbol[1];
    };
    tok.type = TokenType::kSymbol;
    if (two("<=") || two(">=") || two("<>") || two("!=")) {
      tok.text = input.substr(i, 2);
      if (tok.text == "!=") tok.text = "<>";
      i += 2;
    } else if (c != '\0' && std::strchr("(),.*+-/%<>=", c) != nullptr) {
      tok.text = std::string(1, c);
      ++i;
    } else {
      return Status::InvalidArgument("unexpected character '" +
                                     std::string(1, c) + "' at offset " +
                                     std::to_string(i));
    }
    tokens.push_back(std::move(tok));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.position = static_cast<int>(n);
  tokens.push_back(std::move(end));
  return tokens;
}

}  // namespace sql
}  // namespace sumtab
