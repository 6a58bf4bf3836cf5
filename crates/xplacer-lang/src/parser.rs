//! Recursive-descent parser for MiniCU.

use std::collections::HashSet;
use std::fmt;

use crate::ast::*;
use crate::lexer::{lex, LexError, Tok, Token};

/// Parse error with a 1-based line:column source position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at line {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            line: e.line,
            col: e.col,
            message: e.message,
        }
    }
}

type PResult<T> = Result<T, ParseError>;

/// The deepest nesting a program may have, counting nested statements,
/// nested expressions (parenthesized, indexed, call and launch
/// arguments, operands of prefix operators and casts, right-hand
/// assignments, conditional branches), the links of a left-associative
/// chain and pointer declarators alike.
/// The parser and every later pass (sema, instrument, resolve, the
/// interpreter, unparse, the AST's drop) recurse once or more per level.
/// On a 2 MiB stack (optimizer workers, test threads) the costliest
/// constructs measured, parentheses in the parser and `a[`/`-(` in the
/// later passes, overflow at about 700 levels in a release build and 100
/// in a debug build.
pub const MAX_NESTING: u32 = 64;

/// Parse a complete MiniCU translation unit.
pub fn parse(src: &str) -> PResult<Program> {
    Parser::new(src)?.program()
}

/// Parse a single expression (tests, tools).
pub fn parse_expr(src: &str) -> PResult<Expr> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    p.expect(Tok::Eof)?;
    Ok(e)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    structs: HashSet<String>,
    /// Current nesting, at most [`MAX_NESTING`].
    depth: u32,
}

const TYPE_KEYWORDS: [&str; 6] = ["void", "int", "float", "double", "char", "size_t"];
const QUALIFIERS: [&str; 3] = ["__global__", "__device__", "__host__"];

impl Parser {
    fn new(src: &str) -> PResult<Parser> {
        Ok(Parser {
            toks: lex(src)?,
            pos: 0,
            structs: HashSet::new(),
            depth: 0,
        })
    }

    /// Count one more level of nesting, failing past [`MAX_NESTING`].
    fn enter(&mut self) -> PResult<()> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Parse a nested construct with `f`, one level deeper.
    fn nested<T>(&mut self, f: fn(&mut Self) -> PResult<T>) -> PResult<T> {
        self.enter()?;
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// Consume the operator of one more link of a left-associative chain
    /// (`a + b + …`, `a[i][j]…`). Each link wraps the tree built so far,
    /// and every later pass recurses through it, so a link counts as one
    /// level of nesting; the caller restores the depth once the chain is
    /// built.
    fn link(&mut self) -> PResult<()> {
        self.enter()?;
        self.bump();
        Ok(())
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].kind
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].kind
    }

    /// (line, col) of the token at the cursor.
    fn pos(&self) -> (u32, u32) {
        let t = &self.toks[self.pos];
        (t.line, t.col)
    }

    /// [`pos`](Self::pos) as a [`Span`].
    fn span(&self) -> Span {
        let (line, col) = self.pos();
        Span::new(line, col)
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: Tok) -> bool {
        if *self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> PResult<()> {
        if self.eat(t.clone()) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{t}`, found `{}`", self.peek())))
        }
    }

    fn err(&self, message: String) -> ParseError {
        let (line, col) = self.pos();
        ParseError { line, col, message }
    }

    fn ident(&mut self) -> PResult<String> {
        let (line, col) = self.pos();
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(ParseError {
                line,
                col,
                message: format!("expected identifier, found `{other}`"),
            }),
        }
    }

    // ------------------------------------------------------------------
    // Types
    // ------------------------------------------------------------------

    fn is_type_start(&self) -> bool {
        match self.peek() {
            Tok::Ident(s) => {
                s == "struct" || TYPE_KEYWORDS.contains(&s.as_str()) || self.structs.contains(s)
            }
            _ => false,
        }
    }

    fn base_type(&mut self) -> PResult<Type> {
        let name = self.ident()?;
        Ok(match name.as_str() {
            "void" => Type::Void,
            "int" => Type::Int,
            "float" => Type::Float,
            "double" => Type::Double,
            "char" => Type::Char,
            "size_t" => Type::SizeT,
            "struct" => Type::Struct(self.ident()?),
            other if self.structs.contains(other) => Type::Struct(other.to_string()),
            other => return Err(self.err(format!("unknown type `{other}`"))),
        })
    }

    fn ty(&mut self) -> PResult<Type> {
        let mut t = self.base_type()?;
        let depth = self.depth;
        while self.eat(Tok::Star) {
            self.enter()?;
            t = t.ptr();
        }
        self.depth = depth;
        Ok(t)
    }

    // ------------------------------------------------------------------
    // Top level
    // ------------------------------------------------------------------

    fn program(&mut self) -> PResult<Program> {
        // Pre-scan struct names so they act as type names everywhere.
        for i in 0..self.toks.len().saturating_sub(1) {
            if let (Tok::Ident(k), Tok::Ident(n)) = (&self.toks[i].kind, &self.toks[i + 1].kind) {
                if k == "struct" {
                    self.structs.insert(n.clone());
                }
            }
        }
        let mut items = Vec::new();
        while *self.peek() != Tok::Eof {
            items.push(self.item()?);
        }
        Ok(Program { items })
    }

    fn item(&mut self) -> PResult<Item> {
        if let Tok::PragmaLine(text) = self.peek().clone() {
            self.bump();
            return Ok(Item::Pragma(parse_pragma(&text)));
        }
        // struct definition?
        if let Tok::Ident(s) = self.peek() {
            if s == "struct" {
                if let Tok::Ident(_) = self.peek2() {
                    // Could be a definition (`struct S { ... };`) or a
                    // type use (`struct S* f(...)`). Look one further.
                    let save = self.pos;
                    self.bump(); // struct
                    let name = self.ident()?;
                    if *self.peek() == Tok::LBrace {
                        return self.struct_def(name);
                    }
                    self.pos = save;
                }
            }
        }
        // Function or global: [qualifiers] type name ...
        let mut qualifiers = Vec::new();
        while let Tok::Ident(q) = self.peek() {
            if QUALIFIERS.contains(&q.as_str()) {
                let q = self.ident()?;
                qualifiers.push(match q.as_str() {
                    "__global__" => Qualifier::Global,
                    "__device__" => Qualifier::Device,
                    _ => Qualifier::Host,
                });
            } else {
                break;
            }
        }
        let ty = self.ty()?;
        let name = self.ident()?;
        if *self.peek() == Tok::LParen {
            self.bump();
            let mut params = Vec::new();
            if *self.peek() != Tok::RParen {
                loop {
                    let pt = self.ty()?;
                    let pn = self.ident()?;
                    params.push(Param { ty: pt, name: pn });
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
            }
            self.expect(Tok::RParen)?;
            let body = if self.eat(Tok::Semi) {
                None
            } else {
                Some(self.block()?)
            };
            Ok(Item::Func(Func {
                qualifiers,
                ret: ty,
                name,
                params,
                body,
            }))
        } else {
            let init = if self.eat(Tok::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect(Tok::Semi)?;
            Ok(Item::Global(VarDecl {
                ty,
                name,
                init,
                span: Span::default(),
            }))
        }
    }

    fn struct_def(&mut self, name: String) -> PResult<Item> {
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        while *self.peek() != Tok::RBrace {
            let ft = self.ty()?;
            let fname = self.ident()?;
            self.expect(Tok::Semi)?;
            fields.push((ft, fname));
        }
        self.expect(Tok::RBrace)?;
        self.expect(Tok::Semi)?;
        self.structs.insert(name.clone());
        Ok(Item::Struct(StructDef { name, fields }))
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn block(&mut self) -> PResult<Vec<Stmt>> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while *self.peek() != Tok::RBrace {
            stmts.push(self.nested(Self::stmt)?);
        }
        self.expect(Tok::RBrace)?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        if let Tok::PragmaLine(text) = self.peek().clone() {
            self.bump();
            return Ok(Stmt::Pragma(parse_pragma(&text)));
        }
        match self.peek().clone() {
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            Tok::Ident(kw) => match kw.as_str() {
                "if" => self.if_stmt(),
                "while" => self.while_stmt(),
                "for" => self.for_stmt(),
                "return" => {
                    let sp = self.span();
                    self.bump();
                    let e = if *self.peek() == Tok::Semi {
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::Return(e, sp))
                }
                "break" => {
                    self.bump();
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::Break)
                }
                "continue" => {
                    self.bump();
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::Continue)
                }
                _ if self.is_type_start() && !self.next_is_expression_use() => {
                    let d = self.var_decl()?;
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::Decl(d))
                }
                _ => {
                    let sp = self.span();
                    let e = self.expr()?;
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::Expr(e, sp))
                }
            },
            _ => {
                let sp = self.span();
                let e = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Expr(e, sp))
            }
        }
    }

    /// A struct type name used as an expression (e.g. a variable that
    /// shadows... not supported; struct names always start declarations).
    fn next_is_expression_use(&self) -> bool {
        false
    }

    fn var_decl(&mut self) -> PResult<VarDecl> {
        let span = self.span();
        let ty = self.ty()?;
        let name = self.ident()?;
        let init = if self.eat(Tok::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(VarDecl {
            ty,
            name,
            init,
            span,
        })
    }

    fn if_stmt(&mut self) -> PResult<Stmt> {
        let span = self.span();
        self.bump(); // if
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        let then_branch = self.stmt_as_block()?;
        let else_branch = if let Tok::Ident(s) = self.peek() {
            if s == "else" {
                self.bump();
                self.stmt_as_block()?
            } else {
                Vec::new()
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
            span,
        })
    }

    fn stmt_as_block(&mut self) -> PResult<Vec<Stmt>> {
        if *self.peek() == Tok::LBrace {
            self.block()
        } else {
            Ok(vec![self.nested(Self::stmt)?])
        }
    }

    fn while_stmt(&mut self) -> PResult<Stmt> {
        let span = self.span();
        self.bump(); // while
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        let body = self.stmt_as_block()?;
        Ok(Stmt::While { cond, body, span })
    }

    fn for_stmt(&mut self) -> PResult<Stmt> {
        let span = self.span();
        self.bump(); // for
        self.expect(Tok::LParen)?;
        let init = if self.eat(Tok::Semi) {
            None
        } else if self.is_type_start() {
            let d = self.var_decl()?;
            self.expect(Tok::Semi)?;
            Some(Box::new(Stmt::Decl(d)))
        } else {
            let sp = self.span();
            let e = self.expr()?;
            self.expect(Tok::Semi)?;
            Some(Box::new(Stmt::Expr(e, sp)))
        };
        let cond = if *self.peek() == Tok::Semi {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(Tok::Semi)?;
        let step = if *self.peek() == Tok::RParen {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(Tok::RParen)?;
        let body = self.stmt_as_block()?;
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
            span,
        })
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> PResult<Expr> {
        self.nested(Self::assignment)
    }

    fn assignment(&mut self) -> PResult<Expr> {
        let lhs = self.conditional()?;
        let op = match self.peek() {
            Tok::Assign => AssignOp::Set,
            Tok::PlusAssign => AssignOp::Add,
            Tok::MinusAssign => AssignOp::Sub,
            Tok::StarAssign => AssignOp::Mul,
            Tok::SlashAssign => AssignOp::Div,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.nested(Self::assignment)?;
        Ok(Expr::Assign(op, Box::new(lhs), Box::new(rhs)))
    }

    fn conditional(&mut self) -> PResult<Expr> {
        let c = self.binary(0)?;
        if self.eat(Tok::Question) {
            let t = self.expr()?;
            self.expect(Tok::Colon)?;
            let e = self.nested(Self::conditional)?;
            Ok(Expr::Cond(Box::new(c), Box::new(t), Box::new(e)))
        } else {
            Ok(c)
        }
    }

    fn bin_op(&self) -> Option<(BinOp, u8)> {
        Some(match self.peek() {
            Tok::OrOr => (BinOp::Or, 1),
            Tok::AndAnd => (BinOp::And, 2),
            Tok::Pipe => (BinOp::BitOr, 3),
            Tok::Caret => (BinOp::BitXor, 4),
            Tok::Amp => (BinOp::BitAnd, 5),
            Tok::Eq => (BinOp::Eq, 6),
            Tok::Ne => (BinOp::Ne, 6),
            Tok::Lt => (BinOp::Lt, 7),
            Tok::Gt => (BinOp::Gt, 7),
            Tok::Le => (BinOp::Le, 7),
            Tok::Ge => (BinOp::Ge, 7),
            Tok::Shl => (BinOp::Shl, 8),
            Tok::Shr => (BinOp::Shr, 8),
            Tok::Plus => (BinOp::Add, 9),
            Tok::Minus => (BinOp::Sub, 9),
            Tok::Star => (BinOp::Mul, 10),
            Tok::Slash => (BinOp::Div, 10),
            Tok::Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn binary(&mut self, min_prec: u8) -> PResult<Expr> {
        let mut lhs = self.unary()?;
        let depth = self.depth;
        while let Some((op, prec)) = self.bin_op() {
            if prec < min_prec {
                break;
            }
            self.link()?;
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary(&mut self) -> PResult<Expr> {
        match self.peek().clone() {
            Tok::Minus => {
                self.bump();
                Ok(Expr::Unary(UnOp::Neg, self.operand()?))
            }
            Tok::Not => {
                self.bump();
                Ok(Expr::Unary(UnOp::Not, self.operand()?))
            }
            Tok::Star => {
                self.bump();
                Ok(Expr::Unary(UnOp::Deref, self.operand()?))
            }
            Tok::Amp => {
                self.bump();
                Ok(Expr::Unary(UnOp::Addr, self.operand()?))
            }
            Tok::PlusPlus => {
                self.bump();
                Ok(Expr::Unary(UnOp::PreInc, self.operand()?))
            }
            Tok::MinusMinus => {
                self.bump();
                Ok(Expr::Unary(UnOp::PreDec, self.operand()?))
            }
            Tok::LParen if self.cast_ahead() => {
                self.bump();
                let t = self.ty()?;
                self.expect(Tok::RParen)?;
                Ok(Expr::Cast(t, self.operand()?))
            }
            Tok::Ident(s) if s == "sizeof" => {
                self.bump();
                self.expect(Tok::LParen)?;
                let e = if self.is_type_start() {
                    let t = self.ty()?;
                    Expr::SizeofType(t)
                } else {
                    Expr::SizeofExpr(Box::new(self.expr()?))
                };
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(s) if s == "new" => {
                // `new T` / `new T(init)` / `new T[count]` — lowered to a
                // builtin call the interpreter understands.
                self.bump();
                let t = self.ty()?;
                if self.eat(Tok::LBracket) {
                    let count = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    Ok(Expr::Call(
                        "__new_array".into(),
                        vec![Expr::SizeofType(t), count],
                    ))
                } else if self.eat(Tok::LParen) {
                    let init = self.expr()?;
                    self.expect(Tok::RParen)?;
                    Ok(Expr::Call("__new".into(), vec![Expr::SizeofType(t), init]))
                } else {
                    Ok(Expr::Call(
                        "__new".into(),
                        vec![Expr::SizeofType(t), Expr::IntLit(0)],
                    ))
                }
            }
            _ => self.postfix(),
        }
    }

    /// The operand of a prefix operator or cast, one level deeper.
    fn operand(&mut self) -> PResult<Box<Expr>> {
        self.nested(Self::unary).map(Box::new)
    }

    /// Whether `( type )` follows (cast), as opposed to a parenthesized
    /// expression.
    fn cast_ahead(&self) -> bool {
        debug_assert_eq!(*self.peek(), Tok::LParen);
        match self.peek2() {
            Tok::Ident(s) => {
                s == "struct" || TYPE_KEYWORDS.contains(&s.as_str()) || self.structs.contains(s)
            }
            _ => false,
        }
    }

    fn postfix(&mut self) -> PResult<Expr> {
        let mut e = self.primary()?;
        let depth = self.depth;
        loop {
            match self.peek().clone() {
                Tok::LBracket => {
                    self.link()?;
                    let i = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    e = Expr::Index(Box::new(e), Box::new(i));
                }
                Tok::Dot => {
                    self.link()?;
                    let f = self.ident()?;
                    e = Expr::Member(Box::new(e), f, false);
                }
                Tok::Arrow => {
                    self.link()?;
                    let f = self.ident()?;
                    e = Expr::Member(Box::new(e), f, true);
                }
                Tok::PlusPlus => {
                    self.link()?;
                    e = Expr::Postfix(PostOp::Inc, Box::new(e));
                }
                Tok::MinusMinus => {
                    self.link()?;
                    e = Expr::Postfix(PostOp::Dec, Box::new(e));
                }
                _ => break,
            }
        }
        self.depth = depth;
        Ok(e)
    }

    fn primary(&mut self) -> PResult<Expr> {
        let (line, col) = self.pos();
        match self.bump() {
            Tok::Int(v) => Ok(Expr::IntLit(v)),
            Tok::Float(v) => Ok(Expr::FloatLit(v)),
            Tok::Str(s) => Ok(Expr::StrLit(s)),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if *self.peek() == Tok::LaunchOpen {
                    self.bump();
                    let grid = self.expr()?;
                    self.expect(Tok::Comma)?;
                    let block = self.expr()?;
                    // Optional CUDA launch-config tail: `, shmem[, stream]`.
                    let shmem = if self.eat(Tok::Comma) {
                        Some(Box::new(self.expr()?))
                    } else {
                        None
                    };
                    let stream = if shmem.is_some() && self.eat(Tok::Comma) {
                        Some(Box::new(self.expr()?))
                    } else {
                        None
                    };
                    self.expect(Tok::LaunchClose)?;
                    self.expect(Tok::LParen)?;
                    let args = self.args()?;
                    Ok(Expr::KernelLaunch {
                        name,
                        grid: Box::new(grid),
                        block: Box::new(block),
                        shmem,
                        stream,
                        args,
                    })
                } else if *self.peek() == Tok::LParen {
                    self.bump();
                    let args = self.args()?;
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            other => Err(ParseError {
                line,
                col,
                message: format!("unexpected token `{other}` in expression"),
            }),
        }
    }

    fn args(&mut self) -> PResult<Vec<Expr>> {
        let mut args = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                args.push(self.expr()?);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        Ok(args)
    }
}

/// Parse the text of a `#pragma` line into an [`XplPragma`].
pub fn parse_pragma(text: &str) -> XplPragma {
    let t = text.trim();
    let Some(rest) = t.strip_prefix("pragma") else {
        return XplPragma::Other(t.to_string());
    };
    let rest = rest.trim();
    let Some(rest) = rest.strip_prefix("xpl") else {
        return XplPragma::Other(t.to_string());
    };
    let rest = rest.trim();
    if let Some(target) = rest.strip_prefix("replace") {
        return XplPragma::Replace {
            target: target.trim().to_string(),
        };
    }
    if let Some(d) = rest.strip_prefix("diagnostic") {
        let d = d.trim();
        // fn(verbatim...; expanded...)
        if let Some(open) = d.find('(') {
            let func = d[..open].trim().to_string();
            let inner = d[open + 1..].trim_end_matches(')').trim();
            let (verb, exp) = match inner.split_once(';') {
                Some((v, e)) => (v, e),
                None => (inner, ""),
            };
            let split = |s: &str| -> Vec<String> {
                s.split(',')
                    .map(|x| x.trim().to_string())
                    .filter(|x| !x.is_empty())
                    .collect()
            };
            return XplPragma::Diagnostic {
                func,
                verbatim: split(verb),
                expanded: split(exp),
            };
        }
    }
    XplPragma::Other(t.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_function() {
        let p = parse("int add(int a, int b) { return a + b; }").unwrap();
        let f = p.func("add").unwrap();
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Type::Int);
        assert_eq!(
            f.body.as_ref().unwrap()[0],
            Stmt::Return(
                Some(Expr::Binary(
                    BinOp::Add,
                    Box::new(Expr::ident("a")),
                    Box::new(Expr::ident("b"))
                )),
                Span::default()
            )
        );
    }

    #[test]
    fn parses_kernel_and_launch() {
        let src = r#"
            __global__ void init(double* p, int n) {
                int i = threadIdx.x;
                if (i < n) { p[i] = 0.0; }
            }
            int main() {
                double* p;
                cudaMallocManaged((void**)&p, 100 * sizeof(double));
                init<<<1, 100>>>(p, 100);
                return 0;
            }
        "#;
        let p = parse(src).unwrap();
        assert!(p.func("init").unwrap().is_kernel());
        let main = p.func("main").unwrap();
        let body = main.body.as_ref().unwrap();
        assert!(matches!(&body[0], Stmt::Decl(d) if d.ty == Type::Double.ptr()));
        assert!(matches!(
            &body[2],
            Stmt::Expr(Expr::KernelLaunch { name, args, .. }, _) if name == "init" && args.len() == 2
        ));
    }

    #[test]
    fn parses_struct_and_member_access() {
        let src = r#"
            struct Pair { int* first; int* second; };
            int main() {
                Pair* a;
                a->first[0] = 1;
                return a->first[0];
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.struct_def("Pair").unwrap().fields.len(), 2);
        let main = p.func("main").unwrap();
        let body = main.body.as_ref().unwrap();
        assert!(matches!(
            &body[1],
            Stmt::Expr(Expr::Assign(AssignOp::Set, lhs, _), _)
                if matches!(&**lhs, Expr::Index(b, _) if matches!(&**b, Expr::Member(_, f, true) if f == "first"))
        ));
    }

    #[test]
    fn precedence_and_conditional() {
        let e = parse_expr("a + b * c < d ? x : y").unwrap();
        match e {
            Expr::Cond(c, _, _) => match *c {
                Expr::Binary(BinOp::Lt, lhs, _) => match *lhs {
                    Expr::Binary(BinOp::Add, _, mul) => {
                        assert!(matches!(*mul, Expr::Binary(BinOp::Mul, _, _)));
                    }
                    other => panic!("bad lhs {other:?}"),
                },
                other => panic!("bad cond {other:?}"),
            },
            other => panic!("not a conditional: {other:?}"),
        }
    }

    #[test]
    fn casts_and_sizeof() {
        assert_eq!(
            parse_expr("(double)x").unwrap(),
            Expr::Cast(Type::Double, Box::new(Expr::ident("x")))
        );
        assert_eq!(
            parse_expr("sizeof(double)").unwrap(),
            Expr::SizeofType(Type::Double)
        );
        assert!(matches!(
            parse_expr("sizeof(x + 1)").unwrap(),
            Expr::SizeofExpr(_)
        ));
        assert_eq!(
            parse_expr("(void**)&p").unwrap(),
            Expr::Cast(
                Type::Void.ptr().ptr(),
                Box::new(Expr::Unary(UnOp::Addr, Box::new(Expr::ident("p"))))
            )
        );
    }

    #[test]
    fn increments_and_compound_assign() {
        assert!(matches!(
            parse_expr("++(*p)").unwrap(),
            Expr::Unary(UnOp::PreInc, _)
        ));
        assert!(matches!(
            parse_expr("p[i]++").unwrap(),
            Expr::Postfix(PostOp::Inc, _)
        ));
        assert!(matches!(
            parse_expr("a += b").unwrap(),
            Expr::Assign(AssignOp::Add, _, _)
        ));
    }

    #[test]
    fn for_while_if_statements() {
        let src = r#"
            int main() {
                int s = 0;
                for (int i = 0; i < 10; i++) { s += i; }
                while (s > 0) { s = s - 2; break; }
                if (s == 0) { s = 1; } else { s = 2; }
                return s;
            }
        "#;
        let p = parse(src).unwrap();
        let body = p.func("main").unwrap().body.as_ref().unwrap();
        assert!(matches!(&body[1], Stmt::For { .. }));
        assert!(matches!(&body[2], Stmt::While { .. }));
        assert!(matches!(&body[3], Stmt::If { .. }));
    }

    #[test]
    fn pragma_parsing() {
        assert_eq!(
            parse_pragma("pragma xpl replace cudaMallocManaged"),
            XplPragma::Replace {
                target: "cudaMallocManaged".into()
            }
        );
        assert_eq!(
            parse_pragma("pragma xpl diagnostic tracePrint(out; a, z)"),
            XplPragma::Diagnostic {
                func: "tracePrint".into(),
                verbatim: vec!["out".into()],
                expanded: vec!["a".into(), "z".into()],
            }
        );
        assert_eq!(
            parse_pragma("include <xplacer.h>"),
            XplPragma::Other("include <xplacer.h>".into())
        );
    }

    #[test]
    fn pragmas_inside_functions() {
        let src = "int main() {\n#pragma xpl diagnostic trc(o; p)\nreturn 0; }";
        let p = parse(src).unwrap();
        let body = p.func("main").unwrap().body.as_ref().unwrap();
        assert!(matches!(
            &body[0],
            Stmt::Pragma(XplPragma::Diagnostic { .. })
        ));
    }

    #[test]
    fn new_expressions_lower_to_builtins() {
        assert_eq!(
            parse_expr("new int(2)").unwrap(),
            Expr::Call(
                "__new".into(),
                vec![Expr::SizeofType(Type::Int), Expr::IntLit(2)]
            )
        );
        assert!(matches!(
            parse_expr("new double[n]").unwrap(),
            Expr::Call(name, _) if name == "__new_array"
        ));
    }

    #[test]
    fn error_reports_line() {
        let err = parse("int main() {\n  int x = ;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn error_reports_line_and_column() {
        // The offending `;` sits at line 2, column 11.
        let err = parse("int main() {\n  int x = ;\n}").unwrap_err();
        assert_eq!((err.line, err.col), (2, 11));
        assert!(err.to_string().starts_with("parse error at line 2:11: "));
        // Lex errors keep their position through the From conversion.
        let err = parse("int main() {\n  int x = `;\n}").unwrap_err();
        assert_eq!((err.line, err.col), (2, 11));
    }

    #[test]
    fn nesting_is_bounded() {
        let parens = |k| format!("{}0{}", "(".repeat(k), ")".repeat(k));
        let max = MAX_NESTING as usize;
        assert!(parse_expr(&parens(max - 1)).is_ok());
        let e = parse_expr(&parens(max)).unwrap_err();
        assert_eq!((e.line, e.col), (1, max as u32 + 1));
        assert_eq!(e.message, "nesting deeper than 64 levels");
        // Each link of a left-associative chain is one level, under the
        // one the expression itself takes: `0+0+…` may have `max - 1`
        // links, and `a[0][0]…` `max - 2`, as its last index is a level
        // deeper still.
        let sum = |k| format!("0{}", "+0".repeat(k));
        assert!(parse_expr(&sum(max - 1)).is_ok());
        let e = parse_expr(&sum(max)).unwrap_err();
        assert_eq!((e.line, e.col), (1, 2 * max as u32), "at the last `+`");
        assert_eq!(e.message, "nesting deeper than 64 levels");
        let index = |k| format!("a{}", "[0]".repeat(k));
        assert!(parse_expr(&index(max - 2)).is_ok());
        let e = parse_expr(&index(max - 1)).unwrap_err();
        assert_eq!(
            (e.line, e.col),
            (1, 3 * (max as u32 - 1)),
            "at the last index"
        );
        assert_eq!(e.message, "nesting deeper than 64 levels");
    }

    #[test]
    fn shift_vs_launch_disambiguation() {
        // `a << b` parses as a shift, not a launch.
        assert!(matches!(
            parse_expr("a << 2").unwrap(),
            Expr::Binary(BinOp::Shl, _, _)
        ));
    }
}
