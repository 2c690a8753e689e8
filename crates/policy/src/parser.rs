//! Recursive-descent parser for the policy text syntax.

use crate::{PolicyError, PolicyExpr, Principal, RoleMatch};

/// Parses a policy expression from text.
///
/// See the crate-level documentation for the grammar.
pub fn parse(text: &str) -> Result<PolicyExpr, PolicyError> {
    let tokens = tokenize(text)?;
    let mut parser = Parser { tokens, pos: 0 };
    let expr = parser.expr()?;
    if parser.pos != parser.tokens.len() {
        return Err(PolicyError::Parse(format!(
            "unexpected trailing token {:?}",
            parser.tokens[parser.pos]
        )));
    }
    Ok(expr)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    Number(u32),
    LParen,
    RParen,
    Comma,
    Dot,
}

fn tokenize(text: &str) -> Result<Vec<Token>, PolicyError> {
    let mut tokens = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                chars.next();
            }
            '(' => {
                chars.next();
                tokens.push(Token::LParen);
            }
            ')' => {
                chars.next();
                tokens.push(Token::RParen);
            }
            ',' => {
                chars.next();
                tokens.push(Token::Comma);
            }
            '.' => {
                chars.next();
                tokens.push(Token::Dot);
            }
            '0'..='9' => {
                let mut n: u32 = 0;
                while let Some(&d) = chars.peek() {
                    if let Some(v) = d.to_digit(10) {
                        n = n
                            .checked_mul(10)
                            .and_then(|n| n.checked_add(v))
                            .ok_or_else(|| PolicyError::Parse("number too large".into()))?;
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Number(n));
            }
            c if c.is_alphanumeric() || c == '_' || c == '-' => {
                let mut ident = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' || d == '-' {
                        ident.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident(ident));
            }
            other => {
                return Err(PolicyError::Parse(format!(
                    "unexpected character {other:?}"
                )));
            }
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<&Token, PolicyError> {
        let t = self
            .tokens
            .get(self.pos)
            .ok_or_else(|| PolicyError::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, token: Token) -> Result<(), PolicyError> {
        let t = self.next()?;
        if *t == token {
            Ok(())
        } else {
            Err(PolicyError::Parse(format!(
                "expected {token:?}, found {t:?}"
            )))
        }
    }

    fn expr(&mut self) -> Result<PolicyExpr, PolicyError> {
        let ident = match self.next()? {
            Token::Ident(s) => s.clone(),
            other => {
                return Err(PolicyError::Parse(format!(
                    "expected identifier, found {other:?}"
                )))
            }
        };
        // Combinator or meta form if followed by '('.
        if self.peek() == Some(&Token::LParen) {
            let upper = ident.to_ascii_uppercase();
            match upper.as_str() {
                "AND" => {
                    let subs = self.args()?;
                    if subs.is_empty() {
                        return Err(PolicyError::Parse("AND needs at least one operand".into()));
                    }
                    return Ok(PolicyExpr::And(subs));
                }
                "OR" => {
                    let subs = self.args()?;
                    if subs.is_empty() {
                        return Err(PolicyError::Parse("OR needs at least one operand".into()));
                    }
                    return Ok(PolicyExpr::Or(subs));
                }
                "OUTOF" | "NOUTOF" => {
                    self.expect(Token::LParen)?;
                    let k = match self.next()? {
                        Token::Number(n) => *n,
                        other => {
                            return Err(PolicyError::Parse(format!(
                                "OutOf threshold must be a number, found {other:?}"
                            )))
                        }
                    };
                    let mut subs = Vec::new();
                    while self.peek() == Some(&Token::Comma) {
                        self.next()?;
                        subs.push(self.expr()?);
                    }
                    self.expect(Token::RParen)?;
                    if k == 0 || k as usize > subs.len() {
                        return Err(PolicyError::BadThreshold);
                    }
                    return Ok(PolicyExpr::OutOf(k, subs));
                }
                "ANY" | "ALL" | "MAJORITY" => {
                    self.expect(Token::LParen)?;
                    let group = match self.next()? {
                        Token::Ident(s) => s.to_ascii_lowercase(),
                        other => {
                            return Err(PolicyError::Parse(format!(
                                "expected group name, found {other:?}"
                            )))
                        }
                    };
                    self.expect(Token::RParen)?;
                    return match (upper.as_str(), group.as_str()) {
                        ("ANY", "members") => Ok(PolicyExpr::AnyMember),
                        ("ALL", "members") => Ok(PolicyExpr::AllMembers),
                        ("ANY", "admins") => Ok(PolicyExpr::AnyAdmin),
                        ("MAJORITY", "admins") => Ok(PolicyExpr::MajorityAdmins),
                        (f, g) => Err(PolicyError::Parse(format!(
                            "unsupported meta policy {f}({g})"
                        ))),
                    };
                }
                _ => return Err(PolicyError::Parse(format!("unknown combinator {ident:?}"))),
            }
        }
        // Otherwise a principal, optionally role-qualified.
        let role = if self.peek() == Some(&Token::Dot) {
            self.next()?;
            let role_name = match self.next()? {
                Token::Ident(s) => s.to_ascii_lowercase(),
                other => {
                    return Err(PolicyError::Parse(format!(
                        "expected role after '.', found {other:?}"
                    )))
                }
            };
            match role_name.as_str() {
                "member" => RoleMatch::Member,
                "client" => RoleMatch::Client,
                "peer" => RoleMatch::Peer,
                "admin" => RoleMatch::Admin,
                "orderer" => RoleMatch::Orderer,
                other => {
                    return Err(PolicyError::Parse(format!("unknown role {other:?}")));
                }
            }
        } else {
            RoleMatch::Member
        };
        Ok(PolicyExpr::Principal(Principal {
            msp_id: ident,
            role,
        }))
    }

    fn args(&mut self) -> Result<Vec<PolicyExpr>, PolicyError> {
        self.expect(Token::LParen)?;
        let mut subs = Vec::new();
        if self.peek() == Some(&Token::RParen) {
            self.next()?;
            return Ok(subs);
        }
        loop {
            subs.push(self.expr()?);
            match self.next()? {
                Token::Comma => continue,
                Token::RParen => break,
                other => {
                    return Err(PolicyError::Parse(format!(
                        "expected ',' or ')', found {other:?}"
                    )))
                }
            }
        }
        Ok(subs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested() {
        let p = parse("AND(Org1MSP.peer, OR(Org2MSP, OutOf(2, A, B, C)))").unwrap();
        match p {
            PolicyExpr::And(subs) => {
                assert_eq!(subs.len(), 2);
                assert!(matches!(subs[0], PolicyExpr::Principal(_)));
                assert!(matches!(subs[1], PolicyExpr::Or(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn case_insensitive_keywords() {
        assert!(parse("and(A, B)").is_ok());
        assert!(parse("Or(A, B)").is_ok());
        assert!(parse("outof(1, A)").is_ok());
        assert!(parse("NOutOf(1, A)").is_ok());
        assert!(parse("majority(ADMINS)").is_ok());
    }

    #[test]
    fn whitespace_tolerated() {
        assert_eq!(parse(" AND( A , B ) ").unwrap(), parse("AND(A,B)").unwrap());
    }

    #[test]
    fn bad_threshold_rejected() {
        assert_eq!(parse("OutOf(0, A)").unwrap_err(), PolicyError::BadThreshold);
        assert_eq!(
            parse("OutOf(3, A, B)").unwrap_err(),
            PolicyError::BadThreshold
        );
    }

    #[test]
    fn syntax_errors_rejected() {
        for bad in [
            "",
            "AND(",
            "AND()",
            "OR()",
            "A.",
            "A.superuser",
            "AND(A,)",
            "A B",
            "OutOf(x, A)",
            "FOO(A)",
            "ANY(peers)",
            "(A)",
            "A!",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn identifiers_with_dashes_and_digits() {
        let p = parse("Org-1_MSP2").unwrap();
        assert_eq!(
            p,
            PolicyExpr::Principal(Principal {
                msp_id: "Org-1_MSP2".into(),
                role: RoleMatch::Member
            })
        );
    }

    #[test]
    fn number_overflow_rejected() {
        assert!(parse("OutOf(99999999999, A)").is_err());
    }
}
