//! Recursive-descent parser for MiniCL.
//!
//! Grammar (C-like, simplified to what accelerator kernels actually use):
//!
//! ```text
//! program   := func*
//! func      := 'kernel'? type IDENT '(' params? ')' block
//! stmt      := decl | if | while | do-while | for | return
//!            | break | continue | assign | call-stmt | block
//! expr      := ternary with C precedence, casts, calls, indexing
//! ```
//!
//! `++i` / `i--` are accepted as statements (and `for` clauses) and desugared
//! into compound assignments.

use crate::ast::*;
use crate::error::CompileError;
use crate::token::{lex, Kw, Pos, Tok, Token};
use kernel_ir::types::AddressSpace;

/// Parse a MiniCL translation unit.
///
/// # Errors
///
/// Returns the first [`CompileError`] encountered (lexical or syntactic),
/// including nesting deeper than [`MAX_NESTING`] levels.
///
/// # Examples
///
/// ```
/// let src = "kernel void k(global float* out) { out[get_global_id(0)] = 1.0f; }";
/// let prog = minicl::parser::parse(src).unwrap();
/// assert_eq!(prog.functions.len(), 1);
/// assert!(prog.functions[0].is_kernel);
/// ```
pub fn parse(src: &str) -> Result<Program, CompileError> {
    parse_within(src, MAX_NESTING)?
        .map_err(|pos| CompileError::at(pos, format!("nesting deeper than {MAX_NESTING} levels")))
}

/// Parse allowing `limit` levels of nesting: `Ok(Err(pos))` when the
/// source nests deeper, `pos` being where it first does.
pub(crate) fn parse_within(src: &str, limit: u32) -> Result<Result<Program, Pos>, CompileError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        next_id: 0,
        depth: 0,
        peak: 0,
        limit,
        too_deep: None,
    };
    let mut functions = Vec::new();
    while !p.at(&Tok::Eof) {
        match p.function() {
            Ok(f) => functions.push(f),
            Err(e) => return p.too_deep.map(Err).ok_or(e),
        }
    }
    Ok(Ok(Program {
        functions,
        node_count: p.next_id,
    }))
}

/// Deepest nesting of statements and expressions the front end accepts,
/// counting each operand folded into a left-deep chain (`a + b + …`,
/// `a[i][j]…`) as a level, since the syntax tree is that deep.
///
/// Parsing, lowering and dropping the tree recurse over it, so unbounded
/// nesting in tenant source could overflow the stack and abort the whole
/// process; beyond this depth the source is rejected with a positioned
/// [`CompileError`] instead. The bundled kernels nest under 40 levels.
pub const MAX_NESTING: u32 = 256;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_id: u32,
    /// Syntax-tree depth of what is being parsed: open statements and
    /// expressions, plus one per operand folded into a left-deep chain.
    depth: u32,
    /// Deepest `depth` reached in the innermost open chain.
    peak: u32,
    /// Most levels `depth` may reach.
    limit: u32,
    /// Where the source first nested deeper than `limit`.
    too_deep: Option<Pos>,
}

impl Parser {
    /// Run `f` one nesting level deeper, failing past `limit`.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        self.deeper(self.depth)?;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// Enter the level below `level`, failing past `limit`.
    fn deeper(&mut self, level: u32) -> Result<(), CompileError> {
        if level >= self.limit {
            let pos = self.here();
            self.too_deep = Some(pos);
            return Err(CompileError::at(pos, "nesting limit"));
        }
        self.depth = level + 1;
        self.peak = self.peak.max(self.depth);
        Ok(())
    }

    /// Parse a left-deep chain (`a + b + …`, `a[i][j]…`) with `f`, which
    /// calls [`Self::fold`] per operand: parsing nests no deeper there,
    /// but the tree does.
    fn chain<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        let base = self.depth;
        let outer_peak = std::mem::replace(&mut self.peak, base);
        let out = f(self);
        self.depth = base;
        self.peak = self.peak.max(outer_peak);
        out
    }

    /// Fold one more operand into the current chain: the new node sits a
    /// level above everything the chain holds so far.
    fn fold(&mut self) -> Result<(), CompileError> {
        self.deeper(self.peak)
    }

    fn id(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn here(&self) -> Pos {
        self.tokens[self.pos].pos
    }

    fn at(&self, t: &Tok) -> bool {
        self.peek() == t
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Tok) -> Result<(), CompileError> {
        if self.at(t) {
            self.bump();
            Ok(())
        } else {
            Err(CompileError::at(
                self.here(),
                format!("expected {t}, found {}", self.peek()),
            ))
        }
    }

    fn ident(&mut self) -> Result<(String, Pos), CompileError> {
        let pos = self.here();
        match self.bump() {
            Tok::Ident(s) => Ok((s, pos)),
            other => Err(CompileError::at(
                pos,
                format!("expected identifier, found {other}"),
            )),
        }
    }

    fn is_type_start(&self, tok: &Tok) -> bool {
        matches!(
            tok,
            Tok::Kw(
                Kw::Void
                    | Kw::Bool
                    | Kw::Int
                    | Kw::Uint
                    | Kw::Long
                    | Kw::SizeT
                    | Kw::Float
                    | Kw::Double
                    | Kw::Global
                    | Kw::Local
                    | Kw::Constant
                    | Kw::Private
                    | Kw::Const
            )
        )
    }

    fn type_name(&mut self) -> Result<TypeName, CompileError> {
        let mut space = None;
        let mut is_const = false;
        loop {
            match self.peek() {
                Tok::Kw(Kw::Global) => {
                    space = Some(AddressSpace::Global);
                    self.bump();
                }
                Tok::Kw(Kw::Local) => {
                    space = Some(AddressSpace::Local);
                    self.bump();
                }
                Tok::Kw(Kw::Constant) => {
                    space = Some(AddressSpace::Constant);
                    self.bump();
                }
                Tok::Kw(Kw::Private) => {
                    space = Some(AddressSpace::Private);
                    self.bump();
                }
                Tok::Kw(Kw::Const) => {
                    is_const = true;
                    self.bump();
                }
                _ => break,
            }
        }
        let pos = self.here();
        let base = match self.bump() {
            Tok::Kw(Kw::Void) => BaseType::Void,
            Tok::Kw(Kw::Bool) => BaseType::Bool,
            Tok::Kw(Kw::Int) => BaseType::Int,
            Tok::Kw(Kw::Uint) => BaseType::Uint,
            Tok::Kw(Kw::Long) => BaseType::Long,
            Tok::Kw(Kw::SizeT) => BaseType::SizeT,
            Tok::Kw(Kw::Float) => BaseType::Float,
            Tok::Kw(Kw::Double) => BaseType::Double,
            other => {
                return Err(CompileError::at(
                    pos,
                    format!("expected a type, found {other}"),
                ))
            }
        };
        // trailing `const` (e.g. `float const`)
        if self.at(&Tok::Kw(Kw::Const)) {
            is_const = true;
            self.bump();
        }
        let is_ptr = if self.at(&Tok::Star) {
            self.bump();
            // `float* const`
            if self.at(&Tok::Kw(Kw::Const)) {
                self.bump();
                is_const = true;
            }
            true
        } else {
            false
        };
        Ok(TypeName {
            space,
            is_const,
            base,
            is_ptr,
        })
    }

    fn function(&mut self) -> Result<FuncDecl, CompileError> {
        let is_kernel = if self.at(&Tok::Kw(Kw::Kernel)) {
            self.bump();
            true
        } else {
            false
        };
        let ret = self.type_name()?;
        let (name, pos) = self.ident()?;
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if !self.at(&Tok::RParen) {
            loop {
                let ty = self.type_name()?;
                let id = self.id();
                let (pname, ppos) = self.ident()?;
                params.push(ParamDecl {
                    id,
                    pos: ppos,
                    ty,
                    name: pname,
                });
                if self.at(&Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        let body = self.block()?;
        Ok(FuncDecl {
            pos,
            is_kernel,
            ret,
            name,
            params,
            body,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.expect(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at(&Tok::RBrace) {
            if self.at(&Tok::Eof) {
                return Err(CompileError::at(self.here(), "unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        self.bump();
        Ok(stmts)
    }

    /// A block, or a single statement treated as a one-statement block.
    fn block_or_stmt(&mut self) -> Result<Vec<Stmt>, CompileError> {
        if self.at(&Tok::LBrace) {
            self.block()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        self.nested(Self::stmt_inner)
    }

    fn stmt_inner(&mut self) -> Result<Stmt, CompileError> {
        let pos = self.here();
        match self.peek() {
            Tok::Kw(Kw::If) => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let then_branch = self.block_or_stmt()?;
                let else_branch = if self.at(&Tok::Kw(Kw::Else)) {
                    self.bump();
                    self.block_or_stmt()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                })
            }
            Tok::Kw(Kw::While) => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let body = self.block_or_stmt()?;
                Ok(Stmt::While { cond, body })
            }
            Tok::Kw(Kw::Do) => {
                self.bump();
                let body = self.block_or_stmt()?;
                self.expect(&Tok::Kw(Kw::While))?;
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::DoWhile { body, cond })
            }
            Tok::Kw(Kw::For) => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let init = if self.at(&Tok::Semi) {
                    self.bump();
                    None
                } else {
                    let s = self.simple_stmt()?; // consumes `;`
                    Some(Box::new(s))
                };
                let cond = if self.at(&Tok::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                let step = if self.at(&Tok::RParen) {
                    None
                } else {
                    Some(Box::new(self.simple_stmt_no_semi()?))
                };
                self.expect(&Tok::RParen)?;
                let body = self.block_or_stmt()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Tok::Kw(Kw::Return) => {
                self.bump();
                let value = if self.at(&Tok::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Return(value, pos))
            }
            Tok::Kw(Kw::Break) => {
                self.bump();
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Break(pos))
            }
            Tok::Kw(Kw::Continue) => {
                self.bump();
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Continue(pos))
            }
            _ => self.simple_stmt(),
        }
    }

    /// Declaration / assignment / increment / call, ending with `;`.
    fn simple_stmt(&mut self) -> Result<Stmt, CompileError> {
        let s = self.simple_stmt_no_semi()?;
        self.expect(&Tok::Semi)?;
        Ok(s)
    }

    fn simple_stmt_no_semi(&mut self) -> Result<Stmt, CompileError> {
        let t = self.peek().clone();
        if self.is_type_start(&t) {
            return self.decl();
        }
        // Prefix ++/--
        if matches!(t, Tok::PlusPlus | Tok::MinusMinus) {
            self.bump();
            let e = self.postfix_expr()?;
            let target = self.lvalue_of(e)?;
            let op = if t == Tok::PlusPlus {
                AssignOp::Add
            } else {
                AssignOp::Sub
            };
            return Ok(self.incr_assign(target, op));
        }
        let e = self.expr()?;
        let epos = e.pos;
        match self.peek().clone() {
            Tok::Eq | Tok::PlusEq | Tok::MinusEq | Tok::StarEq | Tok::SlashEq | Tok::PercentEq => {
                let op = match self.bump() {
                    Tok::Eq => AssignOp::Set,
                    Tok::PlusEq => AssignOp::Add,
                    Tok::MinusEq => AssignOp::Sub,
                    Tok::StarEq => AssignOp::Mul,
                    Tok::SlashEq => AssignOp::Div,
                    Tok::PercentEq => AssignOp::Rem,
                    _ => unreachable!(),
                };
                let target = self.lvalue_of(e)?;
                let value = self.expr()?;
                Ok(Stmt::Assign { target, op, value })
            }
            Tok::PlusPlus | Tok::MinusMinus => {
                let t = self.bump();
                let target = self.lvalue_of(e)?;
                let op = if t == Tok::PlusPlus {
                    AssignOp::Add
                } else {
                    AssignOp::Sub
                };
                Ok(self.incr_assign(target, op))
            }
            _ => match &e.kind {
                ExprKind::Call(name, _) if name == "barrier" => Ok(Stmt::Barrier(epos)),
                ExprKind::Call(..) => Ok(Stmt::ExprStmt(e)),
                _ => Err(CompileError::at(epos, "expression statement has no effect")),
            },
        }
    }

    fn incr_assign(&mut self, target: LValue, op: AssignOp) -> Stmt {
        let id = self.id();
        let pos = match &target {
            LValue::Var(_, _, p) => *p,
            LValue::Index(_, _, _, p) => *p,
        };
        Stmt::Assign {
            target,
            op,
            value: Expr {
                id,
                pos,
                kind: ExprKind::IntLit(1),
            },
        }
    }

    fn lvalue_of(&mut self, e: Expr) -> Result<LValue, CompileError> {
        match e.kind {
            ExprKind::Ident(name) => Ok(LValue::Var(name, e.id, e.pos)),
            ExprKind::Index(base, index) => Ok(LValue::Index(base, index, e.id, e.pos)),
            _ => Err(CompileError::at(e.pos, "invalid assignment target")),
        }
    }

    fn decl(&mut self) -> Result<Stmt, CompileError> {
        let ty = self.type_name()?;
        let id = self.id();
        let (name, pos) = self.ident()?;
        let array = if self.at(&Tok::LBracket) {
            self.bump();
            let npos = self.here();
            let n = match self.bump() {
                Tok::IntLit(v) if v > 0 => v as u32,
                other => {
                    return Err(CompileError::at(
                        npos,
                        format!("array size must be a positive integer literal, found {other}"),
                    ))
                }
            };
            self.expect(&Tok::RBracket)?;
            Some(n)
        } else {
            None
        };
        let init = if self.at(&Tok::Eq) {
            self.bump();
            if array.is_some() {
                return Err(CompileError::at(
                    pos,
                    "array initialisers are not supported",
                ));
            }
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Decl {
            id,
            pos,
            ty,
            name,
            array,
            init,
        })
    }

    // ---- expressions ----

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr, CompileError> {
        self.nested(Self::ternary_inner)
    }

    fn ternary_inner(&mut self) -> Result<Expr, CompileError> {
        let cond = self.binary(0)?;
        if self.at(&Tok::Question) {
            let pos = self.here();
            self.bump();
            let a = self.expr()?;
            self.expect(&Tok::Colon)?;
            let b = self.ternary()?;
            let id = self.id();
            Ok(Expr {
                id,
                pos,
                kind: ExprKind::Ternary(Box::new(cond), Box::new(a), Box::new(b)),
            })
        } else {
            Ok(cond)
        }
    }

    fn bin_kind(tok: &Tok) -> Option<(BinKind, u8)> {
        // Higher number binds tighter.
        Some(match tok {
            Tok::PipePipe => (BinKind::LogOr, 1),
            Tok::AmpAmp => (BinKind::LogAnd, 2),
            Tok::Pipe => (BinKind::Or, 3),
            Tok::Caret => (BinKind::Xor, 4),
            Tok::Amp => (BinKind::And, 5),
            Tok::EqEq => (BinKind::Eq, 6),
            Tok::Ne => (BinKind::Ne, 6),
            Tok::Lt => (BinKind::Lt, 7),
            Tok::Le => (BinKind::Le, 7),
            Tok::Gt => (BinKind::Gt, 7),
            Tok::Ge => (BinKind::Ge, 7),
            Tok::Shl => (BinKind::Shl, 8),
            Tok::Shr => (BinKind::Shr, 8),
            Tok::Plus => (BinKind::Add, 9),
            Tok::Minus => (BinKind::Sub, 9),
            Tok::Star => (BinKind::Mul, 10),
            Tok::Slash => (BinKind::Div, 10),
            Tok::Percent => (BinKind::Rem, 10),
            _ => return None,
        })
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, CompileError> {
        self.chain(|p| p.binary_chain(min_prec))
    }

    fn binary_chain(&mut self, min_prec: u8) -> Result<Expr, CompileError> {
        let mut lhs = self.unary()?;
        while let Some((kind, prec)) = Self::bin_kind(self.peek()) {
            if prec < min_prec {
                break;
            }
            let pos = self.here();
            self.bump();
            self.fold()?;
            let rhs = self.binary(prec + 1)?;
            let id = self.id();
            lhs = Expr {
                id,
                pos,
                kind: ExprKind::Bin(kind, Box::new(lhs), Box::new(rhs)),
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        let pos = self.here();
        match self.peek() {
            Tok::Minus => {
                self.bump();
                let e = self.nested(Self::unary)?;
                let id = self.id();
                Ok(Expr {
                    id,
                    pos,
                    kind: ExprKind::Un(UnKind::Neg, Box::new(e)),
                })
            }
            Tok::Bang => {
                self.bump();
                let e = self.nested(Self::unary)?;
                let id = self.id();
                Ok(Expr {
                    id,
                    pos,
                    kind: ExprKind::Un(UnKind::Not, Box::new(e)),
                })
            }
            Tok::LParen if self.is_type_start(self.peek2()) => {
                // cast
                self.bump();
                let ty = self.type_name()?;
                self.expect(&Tok::RParen)?;
                let e = self.nested(Self::unary)?;
                let id = self.id();
                Ok(Expr {
                    id,
                    pos,
                    kind: ExprKind::Cast(ty, Box::new(e)),
                })
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, CompileError> {
        self.chain(Self::postfix_chain)
    }

    fn postfix_chain(&mut self) -> Result<Expr, CompileError> {
        let mut e = self.primary()?;
        loop {
            if self.at(&Tok::LBracket) {
                let pos = self.here();
                self.bump();
                self.fold()?;
                let idx = self.expr()?;
                self.expect(&Tok::RBracket)?;
                let id = self.id();
                e = Expr {
                    id,
                    pos,
                    kind: ExprKind::Index(Box::new(e), Box::new(idx)),
                };
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        let pos = self.here();
        match self.bump() {
            Tok::IntLit(v) => {
                let id = self.id();
                Ok(Expr {
                    id,
                    pos,
                    kind: ExprKind::IntLit(v),
                })
            }
            Tok::FloatLit(v, single) => {
                let id = self.id();
                Ok(Expr {
                    id,
                    pos,
                    kind: ExprKind::FloatLit(v, single),
                })
            }
            Tok::Kw(Kw::True) => {
                let id = self.id();
                Ok(Expr {
                    id,
                    pos,
                    kind: ExprKind::BoolLit(true),
                })
            }
            Tok::Kw(Kw::False) => {
                let id = self.id();
                Ok(Expr {
                    id,
                    pos,
                    kind: ExprKind::BoolLit(false),
                })
            }
            Tok::Ident(name) => {
                if self.at(&Tok::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.at(&Tok::Comma) {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&Tok::RParen)?;
                    let id = self.id();
                    Ok(Expr {
                        id,
                        pos,
                        kind: ExprKind::Call(name, args),
                    })
                } else {
                    let id = self.id();
                    Ok(Expr {
                        id,
                        pos,
                        kind: ExprKind::Ident(name),
                    })
                }
            }
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            other => Err(CompileError::at(
                pos,
                format!("expected expression, found {other}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_figure8_kernel() {
        let src = r#"
            kernel void mop(global const float* ina, global const float* inb,
                            global float* out) {
                size_t gid = get_global_id(0);
                size_t grid = get_group_id(0);
                if (grid < 4) {
                    out[gid] = ina[gid] + inb[gid];
                } else {
                    out[gid] = ina[gid] - inb[gid];
                }
            }
        "#;
        let prog = parse(src).unwrap();
        assert_eq!(prog.functions.len(), 1);
        let f = &prog.functions[0];
        assert!(f.is_kernel);
        assert_eq!(f.name, "mop");
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.body.len(), 3);
        assert!(matches!(f.body[2], Stmt::If { .. }));
    }

    #[test]
    fn parses_for_loop_with_increments() {
        let src = r#"
            float dot(global float* a, global float* b, int n) {
                float acc = 0.0f;
                for (int i = 0; i < n; ++i) {
                    acc += a[i] * b[i];
                }
                return acc;
            }
        "#;
        let prog = parse(src).unwrap();
        let f = &prog.functions[0];
        assert!(!f.is_kernel);
        match &f.body[1] {
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                assert!(init.is_some());
                assert!(cond.is_some());
                assert!(matches!(step.as_deref(), Some(Stmt::Assign { .. })));
                assert_eq!(body.len(), 1);
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn parses_local_arrays_and_barrier() {
        let src = r#"
            kernel void k(global float* out) {
                local float tile[64];
                float acc[4];
                tile[get_local_id(0)] = 0.0f;
                barrier(CLK_LOCAL_MEM_FENCE);
                out[0] = tile[0] + acc[0];
            }
        "#;
        let prog = parse(src).unwrap();
        let body = &prog.functions[0].body;
        assert!(matches!(
            &body[0],
            Stmt::Decl {
                array: Some(64),
                ty: TypeName {
                    space: Some(AddressSpace::Local),
                    ..
                },
                ..
            }
        ));
        assert!(matches!(&body[1], Stmt::Decl { array: Some(4), .. }));
        assert!(matches!(&body[3], Stmt::Barrier(_)));
    }

    #[test]
    fn precedence_and_ternary() {
        let prog = parse("int f(int a, int b) { return a + b * 2 < 10 ? a : b; }").unwrap();
        match &prog.functions[0].body[0] {
            Stmt::Return(Some(e), _) => match &e.kind {
                ExprKind::Ternary(c, _, _) => match &c.kind {
                    ExprKind::Bin(BinKind::Lt, l, _) => {
                        assert!(matches!(l.kind, ExprKind::Bin(BinKind::Add, _, _)));
                    }
                    other => panic!("expected <, got {other:?}"),
                },
                other => panic!("expected ternary, got {other:?}"),
            },
            other => panic!("expected return, got {other:?}"),
        }
    }

    #[test]
    fn parses_casts() {
        let prog = parse("float f(int x) { return (float)x / 2.0f; }").unwrap();
        match &prog.functions[0].body[0] {
            Stmt::Return(Some(e), _) => {
                assert!(matches!(
                    &e.kind,
                    ExprKind::Bin(BinKind::Div, l, _) if matches!(l.kind, ExprKind::Cast(..))
                ));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_while_do_break_continue() {
        let src = r#"
            void f(int n) {
                int i = 0;
                while (i < n) {
                    i++;
                    if (i == 3) continue;
                    if (i == 7) break;
                }
                do { i--; } while (i > 0);
            }
        "#;
        let prog = parse(src).unwrap();
        assert_eq!(prog.functions[0].body.len(), 3);
        assert!(matches!(prog.functions[0].body[2], Stmt::DoWhile { .. }));
    }

    #[test]
    fn rejects_bad_syntax() {
        assert!(parse("kernel void k( {").is_err());
        assert!(parse("void f() { 1 + 2; }").is_err()); // no effect
        assert!(parse("void f() { int a[0]; }").is_err()); // zero-size array
        assert!(parse("void f() { return }").is_err());
        assert!(parse("void f() { x = ; }").is_err());
    }

    #[test]
    fn single_statement_bodies() {
        let prog = parse("void f(int n) { if (n > 0) n = 1; else n = 2; }").unwrap();
        match &prog.functions[0].body[0] {
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                assert_eq!(then_branch.len(), 1);
                assert_eq!(else_branch.len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn call_statement_is_expr_stmt() {
        let prog = parse("void g(int x) { } void f() { g(1); }").unwrap();
        assert!(matches!(prog.functions[1].body[0], Stmt::ExprStmt(_)));
    }
}
