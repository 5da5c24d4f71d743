#include "sql/parser.h"

#include <utility>

#include "common/date.h"
#include "sql/lexer.h"

namespace sumtab {
namespace sql {

namespace {

using expr::BinaryOp;
using expr::ExprPtr;

class Parser {
 public:
  Parser(std::vector<Token> tokens, const ParseOptions& options)
      : tokens_(std::move(tokens)), options_(options) {}

  StatusOr<std::shared_ptr<SelectStmt>> ParseStatement() {
    SUMTAB_ASSIGN_OR_RETURN(std::shared_ptr<SelectStmt> stmt, ParseSelect());
    if (!AtEnd()) {
      return Error("unexpected trailing input");
    }
    return stmt;
  }

 private:
  // ---- token helpers ----
  const Token& Peek(int ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }

  bool PeekKeyword(const std::string& kw, int ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kKeyword && t.text == kw;
  }
  bool PeekSymbol(const std::string& sym, int ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kSymbol && t.text == sym;
  }
  bool AcceptKeyword(const std::string& kw) {
    if (!PeekKeyword(kw)) return false;
    Advance();
    return true;
  }
  bool AcceptSymbol(const std::string& sym) {
    if (!PeekSymbol(sym)) return false;
    Advance();
    return true;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (AcceptKeyword(kw)) return Status::OK();
    return Error("expected '" + kw + "'");
  }
  Status ExpectSymbol(const std::string& sym) {
    if (AcceptSymbol(sym)) return Status::OK();
    return Error("expected '" + sym + "'");
  }
  Status Error(const std::string& msg) const {
    return Status::InvalidArgument("parse error at offset " +
                                   std::to_string(Peek().position) + ": " +
                                   msg + " (got '" + Peek().text + "')");
  }

  // ---- recursion guardrail ----
  // Every self-recursive production (subqueries, parenthesized expressions,
  // NOT / unary-minus chains) increments depth_ for the duration of its
  // frame; exceeding the limit yields kResourceExhausted instead of a stack
  // overflow on adversarial input.
  struct DepthGuard {
    explicit DepthGuard(int* depth) : depth(depth) { ++*depth; }
    ~DepthGuard() { --*depth; }
    int* depth;
  };
  bool TooDeep() const { return depth_ > options_.max_depth; }
  Status DepthError() const {
    return Status::ResourceExhausted(
        "query nesting exceeds the depth limit (" +
        std::to_string(options_.max_depth) + ")");
  }

  // ---- grammar ----
  StatusOr<std::shared_ptr<SelectStmt>> ParseSelect() {
    DepthGuard guard(&depth_);
    if (TooDeep()) return DepthError();
    SUMTAB_RETURN_NOT_OK(ExpectKeyword("select"));
    auto stmt = std::make_shared<SelectStmt>();
    stmt->distinct = AcceptKeyword("distinct");

    // SELECT list.
    do {
      SelectItem item;
      SUMTAB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (AcceptKeyword("as")) {
        if (Peek().type != TokenType::kIdentifier) {
          return Error("expected alias after AS");
        }
        item.alias = Advance().text;
      } else if (Peek().type == TokenType::kIdentifier) {
        item.alias = Advance().text;  // bare alias
      }
      stmt->select_list.push_back(std::move(item));
    } while (AcceptSymbol(","));

    // FROM.
    SUMTAB_RETURN_NOT_OK(ExpectKeyword("from"));
    do {
      TableRef ref;
      if (AcceptSymbol("(")) {
        SUMTAB_ASSIGN_OR_RETURN(ref.subquery, ParseSelect());
        SUMTAB_RETURN_NOT_OK(ExpectSymbol(")"));
        AcceptKeyword("as");
        if (Peek().type != TokenType::kIdentifier) {
          // Derived tables may be anonymous in the paper's examples.
          ref.alias = "";
        } else {
          ref.alias = Advance().text;
        }
      } else {
        if (Peek().type != TokenType::kIdentifier) {
          return Error("expected table name");
        }
        ref.table_name = Advance().text;
        if (AcceptKeyword("as")) {
          if (Peek().type != TokenType::kIdentifier) {
            return Error("expected alias after AS");
          }
          ref.alias = Advance().text;
        } else if (Peek().type == TokenType::kIdentifier) {
          ref.alias = Advance().text;
        }
      }
      stmt->from.push_back(std::move(ref));
    } while (AcceptSymbol(","));

    if (AcceptKeyword("where")) {
      SUMTAB_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (PeekKeyword("group")) {
      Advance();
      SUMTAB_RETURN_NOT_OK(ExpectKeyword("by"));
      SUMTAB_ASSIGN_OR_RETURN(GroupBy gb, ParseGroupBy());
      stmt->group_by = std::move(gb);
    }
    if (AcceptKeyword("having")) {
      SUMTAB_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
    if (PeekKeyword("order")) {
      Advance();
      SUMTAB_RETURN_NOT_OK(ExpectKeyword("by"));
      do {
        OrderItem item;
        SUMTAB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptKeyword("desc")) {
          item.ascending = false;
        } else {
          AcceptKeyword("asc");
        }
        stmt->order_by.push_back(std::move(item));
      } while (AcceptSymbol(","));
    }
    return stmt;
  }

  // A grouping element expands to a list of grouping sets; comma-separated
  // elements combine by pairwise cross-product union (SQL:1999 semantics).
  using SetList = std::vector<std::vector<ExprPtr>>;

  StatusOr<GroupBy> ParseGroupBy() {
    SetList combined = {{}};  // one empty set: identity for cross product
    do {
      SUMTAB_ASSIGN_OR_RETURN(SetList elem, ParseGroupElement());
      SetList next;
      for (const auto& left : combined) {
        for (const auto& right : elem) {
          std::vector<ExprPtr> merged = left;
          merged.insert(merged.end(), right.begin(), right.end());
          next.push_back(std::move(merged));
        }
      }
      combined = std::move(next);
    } while (AcceptSymbol(","));

    // Canonicalize: collect distinct items, encode sets as index lists.
    GroupBy gb;
    auto item_index = [&gb](const ExprPtr& e) -> int {
      for (size_t i = 0; i < gb.items.size(); ++i) {
        if (expr::Equal(gb.items[i], e)) return static_cast<int>(i);
      }
      gb.items.push_back(e);
      return static_cast<int>(gb.items.size() - 1);
    };
    std::vector<std::vector<int>> sets;
    for (const auto& set : combined) {
      std::vector<int> indexes;
      for (const ExprPtr& e : set) {
        int idx = item_index(e);
        bool dup = false;
        for (int existing : indexes) dup = dup || existing == idx;
        if (!dup) indexes.push_back(idx);
      }
      // Deduplicate identical sets (e.g. cube(a,a)).
      bool seen = false;
      for (const auto& s : sets) {
        if (s == indexes) seen = true;
      }
      if (!seen) sets.push_back(std::move(indexes));
    }
    gb.sets = std::move(sets);
    return gb;
  }

  StatusOr<SetList> ParseGroupElement() {
    if (AcceptKeyword("rollup")) {
      SUMTAB_RETURN_NOT_OK(ExpectSymbol("("));
      SUMTAB_ASSIGN_OR_RETURN(std::vector<ExprPtr> list, ParseExprList());
      SUMTAB_RETURN_NOT_OK(ExpectSymbol(")"));
      SetList sets;
      for (size_t k = list.size() + 1; k-- > 0;) {
        sets.push_back(
            std::vector<ExprPtr>(list.begin(), list.begin() + k));
      }
      return sets;
    }
    if (AcceptKeyword("cube")) {
      SUMTAB_RETURN_NOT_OK(ExpectSymbol("("));
      SUMTAB_ASSIGN_OR_RETURN(std::vector<ExprPtr> list, ParseExprList());
      SUMTAB_RETURN_NOT_OK(ExpectSymbol(")"));
      if (list.size() > 16) {
        return Error("cube with more than 16 columns");
      }
      SetList sets;
      size_t total = static_cast<size_t>(1) << list.size();
      for (size_t mask = total; mask-- > 0;) {
        std::vector<ExprPtr> set;
        for (size_t i = 0; i < list.size(); ++i) {
          if (mask & (static_cast<size_t>(1) << i)) set.push_back(list[i]);
        }
        sets.push_back(std::move(set));
      }
      return sets;
    }
    if (PeekKeyword("grouping") && PeekKeyword("sets", 1)) {
      Advance();
      Advance();
      SUMTAB_RETURN_NOT_OK(ExpectSymbol("("));
      SetList sets;
      do {
        if (AcceptSymbol("(")) {
          std::vector<ExprPtr> set;
          if (!PeekSymbol(")")) {
            SUMTAB_ASSIGN_OR_RETURN(set, ParseExprList());
          }
          SUMTAB_RETURN_NOT_OK(ExpectSymbol(")"));
          sets.push_back(std::move(set));
        } else {
          SUMTAB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          sets.push_back({std::move(e)});
        }
      } while (AcceptSymbol(","));
      SUMTAB_RETURN_NOT_OK(ExpectSymbol(")"));
      return sets;
    }
    SUMTAB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    SetList sets;
    sets.push_back({std::move(e)});
    return sets;
  }

  StatusOr<std::vector<ExprPtr>> ParseExprList() {
    std::vector<ExprPtr> list;
    do {
      SUMTAB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      list.push_back(std::move(e));
    } while (AcceptSymbol(","));
    return list;
  }

  // ---- expressions ----
  StatusOr<ExprPtr> ParseExpr() {
    DepthGuard guard(&depth_);
    if (TooDeep()) return DepthError();
    return ParseOr();
  }

  StatusOr<ExprPtr> ParseOr() {
    SUMTAB_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (AcceptKeyword("or")) {
      SUMTAB_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = expr::Binary(BinaryOp::kOr, std::move(left), std::move(right));
    }
    return left;
  }

  StatusOr<ExprPtr> ParseAnd() {
    SUMTAB_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (AcceptKeyword("and")) {
      SUMTAB_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = expr::Binary(BinaryOp::kAnd, std::move(left), std::move(right));
    }
    return left;
  }

  StatusOr<ExprPtr> ParseNot() {
    if (AcceptKeyword("not")) {
      DepthGuard guard(&depth_);
      if (TooDeep()) return DepthError();
      SUMTAB_ASSIGN_OR_RETURN(ExprPtr inner, ParseNot());
      return expr::Unary(expr::UnaryOp::kNot, std::move(inner));
    }
    return ParseComparison();
  }

  StatusOr<ExprPtr> ParseComparison() {
    SUMTAB_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    if (PeekKeyword("is")) {
      Advance();
      bool negated = AcceptKeyword("not");
      SUMTAB_RETURN_NOT_OK(ExpectKeyword("null"));
      return expr::IsNull(std::move(left), negated);
    }
    // [NOT] IN (v1, ...) desugars to a disjunction of equalities and
    // [NOT] BETWEEN a AND b to a pair of range conjuncts, so the matcher's
    // predicate-equivalence and range-subsumption machinery applies without
    // special cases.
    {
      bool negated = false;
      if (PeekKeyword("not") &&
          (PeekKeyword("in", 1) || PeekKeyword("between", 1))) {
        Advance();
        negated = true;
      }
      if (AcceptKeyword("in")) {
        SUMTAB_RETURN_NOT_OK(ExpectSymbol("("));
        SUMTAB_ASSIGN_OR_RETURN(std::vector<ExprPtr> values, ParseExprList());
        SUMTAB_RETURN_NOT_OK(ExpectSymbol(")"));
        if (values.empty()) return Error("empty IN list");
        ExprPtr acc;
        for (ExprPtr& v : values) {
          ExprPtr eq = expr::Binary(BinaryOp::kEq, left, std::move(v));
          acc = acc == nullptr
                    ? std::move(eq)
                    : expr::Binary(BinaryOp::kOr, std::move(acc), std::move(eq));
        }
        if (negated) acc = expr::Unary(expr::UnaryOp::kNot, std::move(acc));
        return acc;
      }
      if (AcceptKeyword("between")) {
        SUMTAB_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
        SUMTAB_RETURN_NOT_OK(ExpectKeyword("and"));
        SUMTAB_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
        ExprPtr range = expr::Binary(
            BinaryOp::kAnd, expr::Binary(BinaryOp::kGe, left, std::move(lo)),
            expr::Binary(BinaryOp::kLe, left, std::move(hi)));
        if (negated) {
          range = expr::Unary(expr::UnaryOp::kNot, std::move(range));
        }
        return range;
      }
      if (negated) return Error("expected IN or BETWEEN after NOT");
    }
    static const std::pair<const char*, BinaryOp> kOps[] = {
        {"=", BinaryOp::kEq},  {"<>", BinaryOp::kNe}, {"<=", BinaryOp::kLe},
        {">=", BinaryOp::kGe}, {"<", BinaryOp::kLt},  {">", BinaryOp::kGt},
    };
    for (const auto& [sym, op] : kOps) {
      if (AcceptSymbol(sym)) {
        SUMTAB_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
        return expr::Binary(op, std::move(left), std::move(right));
      }
    }
    return left;
  }

  StatusOr<ExprPtr> ParseAdditive() {
    SUMTAB_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    while (true) {
      if (AcceptSymbol("+")) {
        SUMTAB_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
        left = expr::Binary(BinaryOp::kAdd, std::move(left), std::move(right));
      } else if (AcceptSymbol("-")) {
        SUMTAB_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
        left = expr::Binary(BinaryOp::kSub, std::move(left), std::move(right));
      } else {
        return left;
      }
    }
  }

  StatusOr<ExprPtr> ParseMultiplicative() {
    SUMTAB_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    while (true) {
      BinaryOp op;
      if (AcceptSymbol("*")) {
        op = BinaryOp::kMul;
      } else if (AcceptSymbol("/")) {
        op = BinaryOp::kDiv;
      } else if (AcceptSymbol("%")) {
        op = BinaryOp::kMod;
      } else {
        return left;
      }
      SUMTAB_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      left = expr::Binary(op, std::move(left), std::move(right));
    }
  }

  StatusOr<ExprPtr> ParseUnary() {
    if (AcceptSymbol("-")) {
      DepthGuard guard(&depth_);
      if (TooDeep()) return DepthError();
      SUMTAB_ASSIGN_OR_RETURN(ExprPtr inner, ParseUnary());
      return expr::Unary(expr::UnaryOp::kNeg, std::move(inner));
    }
    return ParsePrimary();
  }

  StatusOr<ExprPtr> ParseAggregate(const std::string& func_name) {
    expr::AggFunc func;
    if (func_name == "count") {
      func = expr::AggFunc::kCount;
    } else if (func_name == "sum") {
      func = expr::AggFunc::kSum;
    } else if (func_name == "min") {
      func = expr::AggFunc::kMin;
    } else if (func_name == "max") {
      func = expr::AggFunc::kMax;
    } else {
      func = expr::AggFunc::kAvg;
    }
    SUMTAB_RETURN_NOT_OK(ExpectSymbol("("));
    if (func == expr::AggFunc::kCount && AcceptSymbol("*")) {
      SUMTAB_RETURN_NOT_OK(ExpectSymbol(")"));
      return expr::CountStar();
    }
    bool distinct = AcceptKeyword("distinct");
    SUMTAB_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
    SUMTAB_RETURN_NOT_OK(ExpectSymbol(")"));
    return expr::Aggregate(func, std::move(arg), distinct);
  }

  /// A literal token's node: a slot literal when Templatize lifted it.
  static ExprPtr Literal(Value v, int slot) {
    return slot >= 0 ? expr::SlotLit(std::move(v), slot)
                     : expr::Lit(std::move(v));
  }

  StatusOr<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kIntLiteral:
        Advance();
        return Literal(Value::Int(t.int_value), t.slot);
      case TokenType::kDoubleLiteral:
        Advance();
        return Literal(Value::Double(t.double_value), t.slot);
      case TokenType::kStringLiteral:
        Advance();
        return Literal(Value::String(t.text), t.slot);
      case TokenType::kKeyword: {
        if (t.text == "date") {
          Advance();
          if (Peek().type == TokenType::kStringLiteral) {
            const Token& text = Advance();
            SUMTAB_ASSIGN_OR_RETURN(int32_t d, ParseDate(text.text));
            return Literal(Value::Date(d), text.slot);
          }
          // Not a date literal: treat `date` as a column name (the paper's
          // Trans table has a column of that name).
          return expr::ColName("", "date");
        }
        if (t.text == "count" || t.text == "sum" || t.text == "min" ||
            t.text == "max" || t.text == "avg") {
          Advance();
          return ParseAggregate(t.text);
        }
        if (t.text == "null") {
          Advance();
          return expr::Lit(Value::Null());
        }
        return Error("unexpected keyword in expression");
      }
      case TokenType::kIdentifier: {
        Advance();
        std::string first = t.text;
        if (AcceptSymbol("(")) {  // scalar function call
          std::vector<ExprPtr> args;
          if (!PeekSymbol(")")) {
            SUMTAB_ASSIGN_OR_RETURN(args, ParseExprList());
          }
          SUMTAB_RETURN_NOT_OK(ExpectSymbol(")"));
          return expr::Function(first, std::move(args));
        }
        if (AcceptSymbol(".")) {
          // Keywords are acceptable column names after a qualifier
          // (`t.date`).
          if (Peek().type != TokenType::kIdentifier &&
              Peek().type != TokenType::kKeyword) {
            return Error("expected column after '.'");
          }
          std::string col = Advance().text;
          return expr::ColName(first, col);
        }
        return expr::ColName("", first);
      }
      case TokenType::kSymbol: {
        if (t.text == "(") {
          Advance();
          if (PeekKeyword("select")) {
            SUMTAB_ASSIGN_OR_RETURN(std::shared_ptr<SelectStmt> sub,
                                    ParseSelect());
            SUMTAB_RETURN_NOT_OK(ExpectSymbol(")"));
            return expr::ScalarSubquery(std::move(sub));
          }
          SUMTAB_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
          SUMTAB_RETURN_NOT_OK(ExpectSymbol(")"));
          return inner;
        }
        return Error("unexpected symbol in expression");
      }
      case TokenType::kEnd:
        return Error("unexpected end of input");
    }
    return Error("unexpected token");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  ParseOptions options_;
  int depth_ = 0;
};

}  // namespace

StatusOr<std::shared_ptr<SelectStmt>> Parse(const std::string& sql,
                                            const ParseOptions& options) {
  SUMTAB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  return ParseTokens(std::move(tokens), options);
}

StatusOr<std::shared_ptr<SelectStmt>> ParseTokens(std::vector<Token> tokens,
                                                  const ParseOptions& options) {
  Parser parser(std::move(tokens), options);
  return parser.ParseStatement();
}

bool IsExplainRewrite(const std::string& sql, std::string* inner_sql) {
  StatusOr<std::vector<Token>> tokens = Lex(sql);
  // A lex error is not this statement: the SELECT parser will report it.
  return tokens.ok() && IsExplainRewrite(sql, *tokens, inner_sql);
}

bool IsExplainRewrite(const std::string& sql, const std::vector<Token>& toks,
                      std::string* inner_sql) {
  if (toks.size() < 3) return false;
  if (toks[0].type != TokenType::kIdentifier || toks[0].text != "explain") {
    return false;
  }
  if (toks[1].type != TokenType::kIdentifier || toks[1].text != "rewrite") {
    return false;
  }
  if (toks[2].type == TokenType::kEnd) return false;
  if (inner_sql != nullptr) {
    // Hand back the raw statement text from the third token on, so the
    // inner parse reports offsets into what the user actually wrote.
    *inner_sql = sql.substr(static_cast<size_t>(toks[2].position));
  }
  return true;
}

bool IsTuneStatement(const std::vector<Token>& toks, int64_t* budget_rows) {
  if (toks.empty() || toks[0].type != TokenType::kIdentifier ||
      toks[0].text != "tune") {
    return false;
  }
  int64_t budget = -1;
  if (toks.size() >= 2 && toks[1].type != TokenType::kEnd) {
    // The only accepted continuation is BUDGET <int>; anything else is not a
    // TUNE statement (it falls through to the SELECT parser's error).
    if (toks.size() < 3 || toks[1].type != TokenType::kIdentifier ||
        toks[1].text != "budget" || toks[2].type != TokenType::kIntLiteral) {
      return false;
    }
    if (toks.size() > 3 && toks[3].type != TokenType::kEnd) return false;
    budget = toks[2].int_value;
  }
  if (budget_rows != nullptr) *budget_rows = budget;
  return true;
}

}  // namespace sql
}  // namespace sumtab
