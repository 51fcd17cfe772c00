/**
 * @file
 * Kernel-text writer: prints a scalar::Kernel in the grammar
 * scalar::parse_kernel reads (scalar/parse.h). The canonical text
 * (scalar/canonical.h) cannot serve here: its (params ...) / (arrays ...)
 * / (body ...) sections are a hashing format, and the parser rejects it.
 *
 * `if` always prints as `if-else`, so an empty branch survives the round
 * trip, and `accumulate` never appears: the AST already holds it as a
 * store of load + value, which prints back to the same tree.
 */
#include "bench.h"
#include "support/error.h"

namespace diospyros::benchmark {

namespace {

using scalar::Cond;
using scalar::CondRef;
using scalar::FloatExpr;
using scalar::FloatRef;
using scalar::IntExpr;
using scalar::IntRef;
using scalar::Stmt;
using scalar::StmtRef;

void
write_int(const IntRef& e, std::string& out)
{
    switch (e->kind) {
      case IntExpr::Kind::kConst:
        out += std::to_string(e->value);
        return;
      case IntExpr::Kind::kVar:
        out += e->var.str();
        return;
      case IntExpr::Kind::kAdd:
      case IntExpr::Kind::kSub:
      case IntExpr::Kind::kMul:
        out += e->kind == IntExpr::Kind::kAdd   ? "(+ "
               : e->kind == IntExpr::Kind::kSub ? "(- "
                                                : "(* ";
        write_int(e->a, out);
        out += ' ';
        write_int(e->b, out);
        out += ')';
        return;
    }
}

const char*
comparison_name(Cond::Kind kind)
{
    switch (kind) {
      case Cond::Kind::kLt:
        return "<";
      case Cond::Kind::kLe:
        return "<=";
      case Cond::Kind::kGt:
        return ">";
      case Cond::Kind::kGe:
        return ">=";
      case Cond::Kind::kEq:
        return "==";
      case Cond::Kind::kNe:
        return "!=";
      default:
        return nullptr;
    }
}

void
write_cond(const CondRef& c, std::string& out)
{
    switch (c->kind) {
      case Cond::Kind::kAnd:
      case Cond::Kind::kOr:
        out += c->kind == Cond::Kind::kAnd ? "(and " : "(or ";
        write_cond(c->c1, out);
        out += ' ';
        write_cond(c->c2, out);
        out += ')';
        return;
      case Cond::Kind::kNot:
        out += "(not ";
        write_cond(c->c1, out);
        out += ')';
        return;
      default:
        out += '(';
        out += comparison_name(c->kind);
        out += ' ';
        write_int(c->x, out);
        out += ' ';
        write_int(c->y, out);
        out += ')';
        return;
    }
}

void
write_float(const FloatRef& e, std::string& out)
{
    const char* head = nullptr;
    switch (e->kind) {
      case FloatExpr::Kind::kConst:
        out += std::to_string(e->value.num());
        if (!e->value.is_integer()) {
            out += '/';
            out += std::to_string(e->value.den());
        }
        return;
      case FloatExpr::Kind::kLoad:
        out += "(load ";
        out += e->array.str();
        out += ' ';
        write_int(e->index, out);
        out += ')';
        return;
      case FloatExpr::Kind::kAdd:
        head = "(+";
        break;
      case FloatExpr::Kind::kSub:
        head = "(-";
        break;
      case FloatExpr::Kind::kMul:
        head = "(*";
        break;
      case FloatExpr::Kind::kDiv:
        head = "(/";
        break;
      case FloatExpr::Kind::kNeg:
        head = "(neg";
        break;
      case FloatExpr::Kind::kSqrt:
        head = "(sqrt";
        break;
      case FloatExpr::Kind::kSgn:
        head = "(sgn";
        break;
      case FloatExpr::Kind::kCall:
        out += "(call ";
        out += e->fn.str();
        for (const FloatRef& a : e->args) {
            out += ' ';
            write_float(a, out);
        }
        out += ')';
        return;
    }
    out += head;
    for (const FloatRef& a : e->args) {
        out += ' ';
        write_float(a, out);
    }
    out += ')';
}

void
write_stmts(const std::vector<StmtRef>& stmts, std::string& out);

void
write_stmt(const StmtRef& s, std::string& out)
{
    switch (s->kind) {
      case Stmt::Kind::kStore:
        out += "(store ";
        out += s->array.str();
        out += ' ';
        write_int(s->index, out);
        out += ' ';
        write_float(s->value, out);
        out += ')';
        return;
      case Stmt::Kind::kFor:
        // The grammar has no empty loop body.
        DIOS_CHECK(!s->body.empty(), "cannot print a for loop with no body");
        out += "(for ";
        out += s->loop_var.str();
        out += ' ';
        write_int(s->lo, out);
        out += ' ';
        write_int(s->hi, out);
        write_stmts(s->body, out);
        out += ')';
        return;
      case Stmt::Kind::kIf:
        out += "(if-else ";
        write_cond(s->cond, out);
        out += " (then";
        write_stmts(s->body, out);
        out += ") (else";
        write_stmts(s->else_body, out);
        out += "))";
        return;
      case Stmt::Kind::kBlock:
        out += "(block";
        write_stmts(s->body, out);
        out += ')';
        return;
    }
}

void
write_stmts(const std::vector<StmtRef>& stmts, std::string& out)
{
    for (const StmtRef& s : stmts) {
        out += ' ';
        write_stmt(s, out);
    }
}

}  // namespace

std::string
kernel_text(const scalar::Kernel& kernel)
{
    std::string out = "(kernel " + kernel.name;
    for (const auto& [sym, value] : kernel.params) {
        out += " (param " + sym.str() + ' ' + std::to_string(value) + ')';
    }
    for (const scalar::ArrayDecl& decl : kernel.arrays) {
        out += decl.role == scalar::ArrayRole::kInput    ? " (input "
               : decl.role == scalar::ArrayRole::kOutput ? " (output "
                                                         : " (scratch ";
        out += decl.name.str();
        out += ' ';
        write_int(decl.size, out);
        out += ')';
    }
    write_stmts(kernel.body, out);
    out += ')';
    return out;
}

}  // namespace diospyros::benchmark
