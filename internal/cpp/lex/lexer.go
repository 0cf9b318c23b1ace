package lex

import (
	"fmt"
	"strings"

	"pdt/internal/source"
)

// Error is a lexical diagnostic.
type Error struct {
	Loc source.Loc
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Loc, e.Msg) }

// Lexer scans one file. Backslash-newline splices are handled; comments
// and whitespace are skipped but recorded via SpaceBefore/StartOfLine.
type Lexer struct {
	file *source.File
	src  []byte
	pos  int // byte offset
	line int
	col  int

	startOfLine bool
	spaceBefore bool

	errs []*Error
}

// New returns a lexer over the file's content.
func New(f *source.File) *Lexer {
	return &Lexer{file: f, src: f.Content, line: 1, col: 1, startOfLine: true}
}

// Errors returns diagnostics accumulated so far.
func (lx *Lexer) Errors() []*Error { return lx.errs }

// Tokens scans the whole file and returns its tokens, terminated by an
// EOF token.
func Tokens(f *source.File) ([]Token, []*Error) {
	lx := New(f)
	// Source runs about three to five bytes a token; starting near the
	// final size spares most of the slice's regrowth and copying.
	out := make([]Token, 0, len(f.Content)/4+2)
	for {
		t := lx.Next()
		out = append(out, t)
		if t.Kind == EOF {
			break
		}
	}
	return out, lx.errs
}

func (lx *Lexer) errorf(loc source.Loc, format string, args ...interface{}) {
	lx.errs = append(lx.errs, &Error{Loc: loc, Msg: fmt.Sprintf(format, args...)})
}

func (lx *Lexer) loc() source.Loc {
	return source.Loc{File: lx.file, Line: lx.line, Col: lx.col}
}

// peek returns the byte at offset d from the cursor, looking through
// backslash-newline splices, or 0 at end of input.
func (lx *Lexer) peek(d int) byte {
	i := lx.pos
	for {
		// Skip splices at the cursor position.
		for i+1 < len(lx.src) && lx.src[i] == '\\' && (lx.src[i+1] == '\n' || (lx.src[i+1] == '\r' && i+2 < len(lx.src) && lx.src[i+2] == '\n')) {
			if lx.src[i+1] == '\r' {
				i += 3
			} else {
				i += 2
			}
		}
		if d == 0 {
			break
		}
		if i >= len(lx.src) {
			return 0
		}
		i++
		d--
	}
	if i >= len(lx.src) {
		return 0
	}
	return lx.src[i]
}

// advance consumes one logical character (through splices), updating
// line/col bookkeeping.
func (lx *Lexer) advance() byte {
	for lx.pos+1 < len(lx.src) && lx.src[lx.pos] == '\\' && (lx.src[lx.pos+1] == '\n' || (lx.src[lx.pos+1] == '\r' && lx.pos+2 < len(lx.src) && lx.src[lx.pos+2] == '\n')) {
		if lx.src[lx.pos+1] == '\r' {
			lx.pos += 3
		} else {
			lx.pos += 2
		}
		lx.line++
		lx.col = 1
	}
	if lx.pos >= len(lx.src) {
		return 0
	}
	b := lx.src[lx.pos]
	lx.pos++
	if b == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return b
}

func isIdentStart(b byte) bool {
	return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

func isIdentCont(b byte) bool { return isIdentStart(b) || isDigit(b) }

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

func isHexDigit(b byte) bool {
	return isDigit(b) || (b >= 'a' && b <= 'f') || (b >= 'A' && b <= 'F')
}

// skipSpace consumes whitespace and comments, updating the pending
// StartOfLine/SpaceBefore flags.
func (lx *Lexer) skipSpace() {
	for {
		b := lx.peek(0)
		switch {
		case b == ' ' || b == '\t' || b == '\r' || b == '\v' || b == '\f':
			lx.advance()
			lx.spaceBefore = true
		case b == '\n':
			lx.advance()
			lx.startOfLine = true
			lx.spaceBefore = true
		case b == '/' && lx.peek(1) == '/':
			for lx.peek(0) != '\n' && lx.peek(0) != 0 {
				lx.advance()
			}
			lx.spaceBefore = true
		case b == '/' && lx.peek(1) == '*':
			loc := lx.loc()
			lx.advance()
			lx.advance()
			closed := false
			for lx.peek(0) != 0 {
				if lx.peek(0) == '*' && lx.peek(1) == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				if lx.peek(0) == '\n' {
					lx.startOfLine = true
				}
				lx.advance()
			}
			if !closed {
				lx.errorf(loc, "unterminated block comment")
			}
			lx.spaceBefore = true
		default:
			return
		}
	}
}

// Next scans and returns the next token.
func (lx *Lexer) Next() Token {
	lx.skipSpace()
	tok := Token{Loc: lx.loc(), StartOfLine: lx.startOfLine, SpaceBefore: lx.spaceBefore}
	lx.startOfLine = false
	lx.spaceBefore = false

	b := lx.peek(0)
	switch {
	case b == 0:
		tok.Kind = EOF
		return tok
	case isIdentStart(b):
		var sb strings.Builder
		for isIdentCont(lx.peek(0)) {
			sb.WriteByte(lx.advance())
		}
		tok.Text = sb.String()
		if IsKeyword(tok.Text) {
			tok.Kind = Keyword
		} else {
			tok.Kind = Ident
		}
		return tok
	case isDigit(b) || (b == '.' && isDigit(lx.peek(1))):
		return lx.lexNumber(tok)
	case b == '\'':
		return lx.lexCharOrString(tok, '\'', CharLit)
	case b == '"':
		return lx.lexCharOrString(tok, '"', StringLit)
	default:
		return lx.lexPunct(tok)
	}
}

func (lx *Lexer) lexNumber(tok Token) Token {
	var sb strings.Builder
	isFloat := false
	if lx.peek(0) == '0' && (lx.peek(1) == 'x' || lx.peek(1) == 'X') {
		sb.WriteByte(lx.advance())
		sb.WriteByte(lx.advance())
		for isHexDigit(lx.peek(0)) {
			sb.WriteByte(lx.advance())
		}
	} else {
		for isDigit(lx.peek(0)) {
			sb.WriteByte(lx.advance())
		}
		if lx.peek(0) == '.' {
			isFloat = true
			sb.WriteByte(lx.advance())
			for isDigit(lx.peek(0)) {
				sb.WriteByte(lx.advance())
			}
		}
		if e := lx.peek(0); e == 'e' || e == 'E' {
			next := lx.peek(1)
			if isDigit(next) || ((next == '+' || next == '-') && isDigit(lx.peek(2))) {
				isFloat = true
				sb.WriteByte(lx.advance())
				if s := lx.peek(0); s == '+' || s == '-' {
					sb.WriteByte(lx.advance())
				}
				for isDigit(lx.peek(0)) {
					sb.WriteByte(lx.advance())
				}
			}
		}
	}
	// Suffixes: uUlL for ints, fFlL for floats.
	for {
		s := lx.peek(0)
		if s == 'u' || s == 'U' || s == 'l' || s == 'L' {
			sb.WriteByte(lx.advance())
			continue
		}
		if (s == 'f' || s == 'F') && isFloat {
			sb.WriteByte(lx.advance())
			continue
		}
		break
	}
	tok.Text = sb.String()
	if isFloat {
		tok.Kind = FloatLit
	} else {
		tok.Kind = IntLit
	}
	return tok
}

func (lx *Lexer) lexCharOrString(tok Token, quote byte, kind Kind) Token {
	var sb strings.Builder
	sb.WriteByte(lx.advance()) // opening quote
	for {
		b := lx.peek(0)
		if b == 0 || b == '\n' {
			lx.errorf(tok.Loc, "unterminated %s", kind)
			break
		}
		if b == '\\' {
			sb.WriteByte(lx.advance())
			if lx.peek(0) != 0 {
				sb.WriteByte(lx.advance())
			}
			continue
		}
		sb.WriteByte(lx.advance())
		if b == quote {
			break
		}
	}
	tok.Kind = kind
	tok.Text = sb.String()
	return tok
}

// punct3/punct2/punct1 map spellings to kinds, longest match first.
var punct3 = map[string]Kind{
	"...": Ellipsis, "<<=": ShlAssign, ">>=": ShrAssign, "->*": ArrowStar,
}

var punct2 = map[string]Kind{
	"::": ColonCol, ".*": DotStar, "->": Arrow,
	"+=": PlusAssign, "-=": MinusAssign, "*=": StarAssign, "/=": SlashAssign,
	"%=": PercentAssign, "^=": CaretAssign, "&=": AmpAssign, "|=": PipeAssign,
	"<<": Shl, ">>": Shr, "==": Eq, "!=": Ne, "<=": Le, ">=": Ge,
	"&&": AndAnd, "||": OrOr, "++": PlusPlus, "--": MinusMinus, "##": HashHash,
}

var punct1 = map[byte]Kind{
	'{': LBrace, '}': RBrace, '(': LParen, ')': RParen,
	'[': LBracket, ']': RBracket, ';': Semi, ',': Comma,
	':': Colon, '.': Dot, '?': Question,
	'+': Plus, '-': Minus, '*': Star, '/': Slash, '%': Percent,
	'^': Caret, '&': Amp, '|': Pipe, '~': Tilde, '!': Not,
	'=': Assign, '<': Lt, '>': Gt, '#': Hash,
}

func (lx *Lexer) lexPunct(tok Token) Token {
	b0, b1, b2 := lx.peek(0), lx.peek(1), lx.peek(2)
	if k, ok := punct3[string([]byte{b0, b1, b2})]; ok {
		tok.Kind = k
		tok.Text = string([]byte{lx.advance(), lx.advance(), lx.advance()})
		return tok
	}
	if k, ok := punct2[string([]byte{b0, b1})]; ok {
		tok.Kind = k
		tok.Text = string([]byte{lx.advance(), lx.advance()})
		return tok
	}
	if k, ok := punct1[b0]; ok {
		tok.Kind = k
		tok.Text = string(lx.advance())
		return tok
	}
	lx.errorf(tok.Loc, "unexpected character %q", string(b0))
	tok.Kind = Other
	tok.Text = string(lx.advance())
	return tok
}

// Stringify renders a token run back to compilable text, inserting the
// minimal whitespace implied by SpaceBefore. It is used for PDB
// "ttext"/"mtext" attributes and by the TAU instrumentor.
func Stringify(toks []Token) string {
	var sb strings.Builder
	for i, t := range toks {
		if i > 0 && t.SpaceBefore {
			sb.WriteByte(' ')
		}
		sb.WriteString(t.Text)
	}
	return sb.String()
}
