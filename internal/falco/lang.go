package falco

// This file implements the rule condition language, mirroring the subset
// of Falco's filter syntax the paper's deployment uses. Conditions are
// boolean expressions over event fields:
//
//	evt.type = exec and proc.name != runc and evt.target startswith /bin/
//	evt.type = connect and not evt.target endswith .internal:5432
//	evt.type in (file-open, file-write) and evt.target contains /secrets/
//
// Grammar:
//
//	expr   := or
//	or     := and { "or" and }
//	and    := unary { "and" unary }
//	unary  := "not" unary | "(" expr ")" | cmp
//	cmp    := field op value | field "in" "(" value {"," value} ")"
//	field  := evt.type | evt.target | proc.name | workload | tenant | evt.seq
//	op     := "=" | "!=" | "contains" | "startswith" | "endswith"
//
// Values are barewords or double-quoted strings. ParseCondition compiles
// the text into a Condition usable in a Rule.

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"genio/internal/trace"
)

// ParseCondition compiles a Falco-style condition expression.
func ParseCondition(src string) (Condition, error) {
	p := &condParser{tokens: lexCondition(src)}
	expr, err := p.parseOr()
	if err != nil {
		return nil, fmt.Errorf("falco: parse %q: %w", src, err)
	}
	if !p.eof() {
		return nil, fmt.Errorf("falco: parse %q: trailing input at %q", src, p.peek())
	}
	return func(e trace.Event, hist []trace.Event) bool {
		return expr.eval(e, hist)
	}, nil
}

// ParseRule builds a complete Rule from textual fields.
func ParseRule(name string, priority Priority, condition string, exceptions ...string) (Rule, error) {
	cond, err := ParseCondition(condition)
	if err != nil {
		return Rule{}, err
	}
	return Rule{Name: name, Priority: priority, Cond: cond, Exceptions: exceptions}, nil
}

// --- expression tree ---------------------------------------------------------

type condExpr interface {
	eval(e trace.Event, hist []trace.Event) bool
}

type orExpr struct{ l, r condExpr }

func (x orExpr) eval(e trace.Event, h []trace.Event) bool { return x.l.eval(e, h) || x.r.eval(e, h) }

type andExpr struct{ l, r condExpr }

func (x andExpr) eval(e trace.Event, h []trace.Event) bool { return x.l.eval(e, h) && x.r.eval(e, h) }

type notExpr struct{ inner condExpr }

func (x notExpr) eval(e trace.Event, h []trace.Event) bool { return !x.inner.eval(e, h) }

type cmpExpr struct {
	field string
	op    string
	vals  []string // 1 value, or several for "in"
}

func fieldValue(field string, e trace.Event) (string, error) {
	switch field {
	case "evt.type":
		return e.Type.String(), nil
	case "evt.target":
		return e.Target, nil
	case "evt.seq":
		return strconv.Itoa(e.Seq), nil
	case "proc.name":
		return e.Process, nil
	case "workload":
		return e.Workload, nil
	case "tenant":
		return e.Tenant, nil
	default:
		return "", fmt.Errorf("unknown field %q", field)
	}
}

func (x cmpExpr) eval(e trace.Event, _ []trace.Event) bool {
	got, err := fieldValue(x.field, e)
	if err != nil {
		return false
	}
	switch x.op {
	case "=":
		return got == x.vals[0]
	case "!=":
		return got != x.vals[0]
	case "contains":
		return strings.Contains(got, x.vals[0])
	case "startswith":
		return strings.HasPrefix(got, x.vals[0])
	case "endswith":
		return strings.HasSuffix(got, x.vals[0])
	case "in":
		for _, v := range x.vals {
			if got == v {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// firstExec is the special predicate "evt.first_exec": true when this is
// the workload's first exec event (the container entrypoint).
type firstExecExpr struct{}

func (firstExecExpr) eval(e trace.Event, hist []trace.Event) bool {
	if e.Type != trace.EventExec {
		return false
	}
	for _, h := range hist {
		if h.Type == trace.EventExec {
			return false
		}
	}
	return true
}

// --- lexer --------------------------------------------------------------------

func lexCondition(src string) []string {
	var tokens []string
	i := 0
	for i < len(src) {
		c := rune(src[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '(' || c == ')' || c == ',':
			tokens = append(tokens, string(c))
			i++
		case c == '=':
			tokens = append(tokens, "=")
			i++
		case c == '!' && i+1 < len(src) && src[i+1] == '=':
			tokens = append(tokens, "!=")
			i += 2
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				j++
			}
			tokens = append(tokens, `"`+src[i+1:min(j, len(src))])
			if j < len(src) {
				j++
			}
			i = j
		default:
			j := i
			for j < len(src) && !strings.ContainsRune(" \t()=,", rune(src[j])) &&
				!(src[j] == '!' && j+1 < len(src) && src[j+1] == '=') {
				j++
			}
			tokens = append(tokens, src[i:j])
			i = j
		}
	}
	return tokens
}

// --- parser -------------------------------------------------------------------

type condParser struct {
	tokens []string
	pos    int
}

func (p *condParser) eof() bool { return p.pos >= len(p.tokens) }

func (p *condParser) peek() string {
	if p.eof() {
		return ""
	}
	return p.tokens[p.pos]
}

func (p *condParser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *condParser) expect(tok string) error {
	if got := p.next(); got != tok {
		return fmt.Errorf("expected %q, got %q", tok, got)
	}
	return nil
}

func (p *condParser) parseOr() (condExpr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek() == "or" {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = orExpr{l: left, r: right}
	}
	return left, nil
}

func (p *condParser) parseAnd() (condExpr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek() == "and" {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = andExpr{l: left, r: right}
	}
	return left, nil
}

func (p *condParser) parseUnary() (condExpr, error) {
	switch p.peek() {
	case "not":
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return notExpr{inner: inner}, nil
	case "(":
		p.next()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return inner, nil
	case "":
		return nil, fmt.Errorf("unexpected end of condition")
	default:
		return p.parseCmp()
	}
}

var condFields = map[string]bool{
	"evt.type": true, "evt.target": true, "evt.seq": true,
	"proc.name": true, "workload": true, "tenant": true,
}

func (p *condParser) parseCmp() (condExpr, error) {
	field := p.next()
	if field == "evt.first_exec" {
		return firstExecExpr{}, nil
	}
	if !condFields[field] {
		return nil, fmt.Errorf("unknown field %q", field)
	}
	op := p.next()
	switch op {
	case "=", "!=", "contains", "startswith", "endswith":
		val, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		return cmpExpr{field: field, op: op, vals: []string{val}}, nil
	case "in":
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var vals []string
		for {
			v, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if p.peek() == "," {
				p.next()
				continue
			}
			break
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return cmpExpr{field: field, op: "in", vals: vals}, nil
	default:
		return nil, fmt.Errorf("unknown operator %q", op)
	}
}

func (p *condParser) parseValue() (string, error) {
	tok := p.next()
	if tok == "" {
		return "", fmt.Errorf("expected value")
	}
	if strings.HasPrefix(tok, `"`) {
		return tok[1:], nil
	}
	switch tok {
	case "(", ")", ",", "and", "or", "not", "=", "!=":
		return "", fmt.Errorf("expected value, got %q", tok)
	}
	return tok, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
