// Abstract syntax tree for the supported SQL subset.
//
// The grammar is deliberately small -- exactly the shapes the planner can
// exploit (see README "SQL front end" for the EBNF):
//
//   [EXPLAIN] SELECT [DISTINCT] items | *
//     FROM table [alias] (INNER JOIN table [alias] ON a = b [AND ...])*
//     [WHERE comparison [AND ...]]
//     [GROUP BY columns]
//     [{UNION|INTERSECT|EXCEPT} [ALL] select ...]
//     [ORDER BY column [ASC|DESC], ...]
//     [LIMIT n]
//
// Aggregates: COUNT(*), COUNT(col), COUNT(DISTINCT col), SUM/MIN/MAX(col).
// Every node keeps the token it was parsed from so the binder can report
// errors with exact source positions.

#ifndef OVC_SQL_AST_H_
#define OVC_SQL_AST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sql/lexer.h"

namespace ovc::sql {

/// A possibly-qualified column reference: `name` or `qualifier.name`
/// (normalized lowercase).
struct ColumnRef {
  std::string qualifier;  // "" when unqualified
  std::string name;
  Token token;  // head token, for bind-error positions

  std::string ToString() const {
    return qualifier.empty() ? name : qualifier + "." + name;
  }
};

/// Aggregate functions of the select list.
enum class AggKind : uint8_t { kCount, kCountDistinct, kSum, kMin, kMax };

/// One select-list entry: a plain column or an aggregate call, with an
/// optional AS alias.
struct SelectItem {
  bool is_aggregate = false;
  /// The plain column, or the aggregate's argument (unused for COUNT(*)).
  ColumnRef column;
  AggKind agg = AggKind::kCount;
  bool agg_star = false;  // COUNT(*)
  std::string alias;      // "" when none
  Token token;

  std::string ToString() const;
};

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpName(CompareOp op);  // "=", "!=", "<", ...

/// One WHERE conjunct: `lhs op rhs`, each side a column or an unsigned
/// integer literal.
struct Comparison {
  bool lhs_is_literal = false;
  ColumnRef lhs;
  uint64_t lhs_literal = 0;
  CompareOp op = CompareOp::kEq;
  bool rhs_is_literal = false;
  ColumnRef rhs;
  uint64_t rhs_literal = 0;
  Token token;  // the operator token

  std::string ToString() const;
};

/// FROM / JOIN table reference with optional alias.
struct TableRef {
  std::string table;
  std::string alias;  // "" when none
  Token token;

  std::string ToString() const {
    return alias.empty() ? table : table + " " + alias;
  }
};

/// INNER JOIN ... ON a = b [AND c = d ...]
struct JoinClause {
  TableRef table;
  /// Equi-join pairs exactly as written (sides not yet assigned to inputs).
  std::vector<std::pair<ColumnRef, ColumnRef>> on;
};

struct OrderItem {
  ColumnRef column;
  bool descending = false;
};

/// One SELECT core: everything up to (but excluding) set operations,
/// ORDER BY, and LIMIT.
struct SelectCore {
  bool distinct = false;
  bool select_star = false;
  std::vector<SelectItem> items;  // empty when select_star
  TableRef from;
  std::vector<JoinClause> joins;
  std::vector<Comparison> where;  // conjunction; empty = no WHERE
  std::vector<ColumnRef> group_by;

  std::string ToString() const;
};

enum class SetOpKind : uint8_t { kUnion, kIntersect, kExcept };

const char* SetOpKindName(SetOpKind kind);  // "UNION", ...

struct SetOpClause {
  SetOpKind kind = SetOpKind::kUnion;
  bool all = false;
  SelectCore select;
  Token token;
};

/// A full query: a SELECT core, optional set-operation chain (left
/// associative), then ORDER BY / LIMIT over the combined result.
struct SelectStmt {
  SelectCore first;
  std::vector<SetOpClause> set_ops;
  std::vector<OrderItem> order_by;
  bool has_limit = false;
  uint64_t limit = 0;

  std::string ToString() const;
};

/// A statement: a query, optionally prefixed with EXPLAIN [ANALYZE].
struct Statement {
  bool explain = false;
  /// EXPLAIN ANALYZE: execute the query with per-operator profiling and
  /// render the plan with actuals instead of the result rows. Only
  /// meaningful when `explain` is set.
  bool analyze = false;
  SelectStmt select;

  /// Canonical SQL rendering; parsing it again yields an equal AST (the
  /// parser test's round-trip property).
  std::string ToString() const;
};

}  // namespace ovc::sql

#endif  // OVC_SQL_AST_H_
