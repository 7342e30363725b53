#include "sql/ast.h"

namespace ovc::sql {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* SetOpKindName(SetOpKind kind) {
  switch (kind) {
    case SetOpKind::kUnion:
      return "UNION";
    case SetOpKind::kIntersect:
      return "INTERSECT";
    case SetOpKind::kExcept:
      return "EXCEPT";
  }
  return "?";
}

std::string SelectItem::ToString() const {
  std::string out;
  if (!is_aggregate) {
    out = column.ToString();
  } else {
    switch (agg) {
      case AggKind::kCount:
        out = agg_star ? "COUNT(*)" : "COUNT(" + column.ToString() + ")";
        break;
      case AggKind::kCountDistinct:
        out = "COUNT(DISTINCT " + column.ToString() + ")";
        break;
      case AggKind::kSum:
        out = "SUM(" + column.ToString() + ")";
        break;
      case AggKind::kMin:
        out = "MIN(" + column.ToString() + ")";
        break;
      case AggKind::kMax:
        out = "MAX(" + column.ToString() + ")";
        break;
    }
  }
  if (!alias.empty()) out += " AS " + alias;
  return out;
}

std::string Comparison::ToString() const {
  std::string out = lhs_is_literal ? std::to_string(lhs_literal)
                                   : lhs.ToString();
  out += std::string(" ") + CompareOpName(op) + " ";
  out += rhs_is_literal ? std::to_string(rhs_literal) : rhs.ToString();
  return out;
}

std::string SelectCore::ToString() const {
  std::string out = "SELECT ";
  if (distinct) out += "DISTINCT ";
  if (select_star) {
    out += "*";
  } else {
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ", ";
      out += items[i].ToString();
    }
  }
  out += " FROM " + from.ToString();
  for (const JoinClause& join : joins) {
    out += " INNER JOIN " + join.table.ToString() + " ON ";
    for (size_t i = 0; i < join.on.size(); ++i) {
      if (i > 0) out += " AND ";
      out += join.on[i].first.ToString() + " = " +
             join.on[i].second.ToString();
    }
  }
  if (!where.empty()) {
    out += " WHERE ";
    for (size_t i = 0; i < where.size(); ++i) {
      if (i > 0) out += " AND ";
      out += where[i].ToString();
    }
  }
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by[i].ToString();
    }
  }
  return out;
}

std::string SelectStmt::ToString() const {
  std::string out = first.ToString();
  for (const SetOpClause& op : set_ops) {
    out += std::string(" ") + SetOpKindName(op.kind);
    if (op.all) out += " ALL";
    out += " " + op.select.ToString();
  }
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += order_by[i].column.ToString();
      if (order_by[i].descending) out += " DESC";
    }
  }
  if (has_limit) out += " LIMIT " + std::to_string(limit);
  return out;
}

std::string Statement::ToString() const {
  std::string prefix;
  if (explain) prefix = analyze ? "EXPLAIN ANALYZE " : "EXPLAIN ";
  return prefix + select.ToString();
}

}  // namespace ovc::sql
