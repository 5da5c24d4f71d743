#include "sql/template.h"

#include "common/date.h"
#include "expr/expr_print.h"

namespace sumtab {
namespace sql {

namespace {

/// The literal a token stands for, or Null when it stays in the text.
Value LiteralOf(const Token& token, bool after_date) {
  switch (token.type) {
    case TokenType::kIntLiteral:
      return Value::Int(token.int_value);
    case TokenType::kDoubleLiteral:
      return Value::Double(token.double_value);
    case TokenType::kStringLiteral: {
      if (!after_date) return Value::String(token.text);
      StatusOr<int32_t> date = ParseDate(token.text);
      return date.ok() ? Value::Date(*date) : Value::Null();
    }
    default:
      return Value::Null();
  }
}

/// The token as it reads in the text.
std::string TokenText(const Token& token) {
  switch (token.type) {
    case TokenType::kIntLiteral:
      return std::to_string(token.int_value);
    case TokenType::kStringLiteral:
      return expr::LiteralToString(Value::String(token.text));
    default:
      return token.text;
  }
}

/// Appends `word`, the text of `token`, after `prev`: single spaces, none
/// inside parentheses, around dots, before commas or after a call's name.
void Append(const std::string& word, const Token& token, const Token* prev,
            std::string* out) {
  bool call = token.type == TokenType::kSymbol && token.text == "(" &&
              prev != nullptr &&
              (prev->type == TokenType::kIdentifier ||
               (prev->type == TokenType::kKeyword &&
                (prev->text == "count" || prev->text == "sum" ||
                 prev->text == "min" || prev->text == "max" ||
                 prev->text == "avg")));
  bool tight = out->empty() || out->back() == '(' || out->back() == '.' ||
               call ||
               (token.type == TokenType::kSymbol &&
                (word == "," || word == ")" || word == "."));
  if (!tight) *out += ' ';
  *out += word;
}

}  // namespace

std::string SqlTemplate::SlotKinds() const {
  std::string kinds;
  for (const Value& v : params) {
    switch (v.kind()) {
      case Value::Kind::kInt:
        kinds += 'i';
        break;
      case Value::Kind::kDouble:
        kinds += 'd';
        break;
      case Value::Kind::kString:
        kinds += 's';
        break;
      default:
        kinds += 't';
        break;
    }
  }
  return kinds;
}

SqlTemplate Templatize(std::vector<Token>* tokens) {
  SqlTemplate out;
  int depth = 0;
  int order_by_depth = -1;  // paren depth of the open ORDER BY clause
  for (size_t i = 0; i < tokens->size(); ++i) {
    Token& token = (*tokens)[i];
    if (token.type == TokenType::kEnd) break;
    if (token.type == TokenType::kSymbol) {
      if (token.text == "(") ++depth;
      if (token.text == ")" && --depth < order_by_depth) order_by_depth = -1;
    } else if (token.type == TokenType::kKeyword && token.text == "by" &&
               i > 0 && (*tokens)[i - 1].type == TokenType::kKeyword &&
               (*tokens)[i - 1].text == "order") {
      order_by_depth = depth;
    }
    const bool after_date = i > 0 &&
                            (*tokens)[i - 1].type == TokenType::kKeyword &&
                            (*tokens)[i - 1].text == "date";
    Value literal = order_by_depth >= 0 ? Value::Null()
                                        : LiteralOf(token, after_date);
    const Token* prev = i > 0 ? &(*tokens)[i - 1] : nullptr;
    if (literal.is_null()) {
      Append(TokenText(token), token, prev, &out.text);
      continue;
    }
    int slot = 0;
    while (slot < static_cast<int>(out.params.size()) &&
           !(out.params[slot].kind() == literal.kind() &&
             out.params[slot] == literal)) {
      ++slot;
    }
    if (slot == static_cast<int>(out.params.size())) {
      out.params.push_back(std::move(literal));
    }
    token.slot = slot;
    Append("?" + std::to_string(slot), token, prev, &out.text);
  }
  return out;
}

}  // namespace sql
}  // namespace sumtab
