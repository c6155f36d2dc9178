package shell

import (
	"fmt"
	"strings"
)

// wordPart is a fragment of an expanded word, tagged with whether it was
// quoted (quoted fragments never undergo field splitting or globbing).
type wordPart struct {
	text   string
	quoted bool
}

// plainWord reports whether a raw word contains no quoting, escaping or
// substitution syntax, i.e. it expands to exactly itself. Such words —
// the overwhelming majority of argv words in unit-test scripts — skip
// the expansion machinery entirely.
func plainWord(raw string) bool {
	for i := 0; i < len(raw); i++ {
		switch raw[i] {
		case '\'', '"', '\\', '$', '`':
			return false
		}
	}
	return true
}

// expandParts interprets quotes, backslashes, variables, command and
// arithmetic substitution inside a raw word.
func (in *Interp) expandParts(raw string) ([]wordPart, error) {
	var parts []wordPart
	var cur strings.Builder
	curQuoted := false
	flush := func(quoted bool) {
		if cur.Len() > 0 || quoted {
			parts = append(parts, wordPart{text: cur.String(), quoted: curQuoted})
			cur.Reset()
		}
	}
	i := 0
	for i < len(raw) {
		c := raw[i]
		switch c {
		case '\'':
			end := strings.IndexByte(raw[i+1:], '\'')
			if end < 0 {
				return nil, fmt.Errorf("unterminated single quote")
			}
			flush(false)
			curQuoted = true
			cur.WriteString(raw[i+1 : i+1+end])
			flush(true)
			curQuoted = false
			i += end + 2
		case '"':
			content, n, err := scanDoubleQuoted(raw[i:])
			if err != nil {
				return nil, err
			}
			expanded, err := in.expandInDouble(content)
			if err != nil {
				return nil, err
			}
			flush(false)
			curQuoted = true
			cur.WriteString(expanded)
			flush(true)
			curQuoted = false
			i += n
		case '\\':
			if i+1 < len(raw) {
				flush(false)
				curQuoted = true
				cur.WriteByte(raw[i+1])
				flush(true)
				curQuoted = false
				i += 2
			} else {
				cur.WriteByte('\\')
				i++
			}
		case '$':
			val, n, err := in.expandDollar(raw[i:])
			if err != nil {
				return nil, err
			}
			cur.WriteString(val)
			i += n
		case '`':
			end := strings.IndexByte(raw[i+1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated backtick")
			}
			out, err := in.captureSub(raw[i+1 : i+1+end])
			if err != nil {
				return nil, err
			}
			cur.WriteString(out)
			i += end + 2
		default:
			cur.WriteByte(c)
			i++
		}
	}
	flush(false)
	return parts, nil
}

// scanDoubleQuoted returns the content between double quotes and the
// total bytes consumed including both quotes.
func scanDoubleQuoted(s string) (string, int, error) {
	var b strings.Builder
	i := 1
	for i < len(s) {
		switch s[i] {
		case '\\':
			if i+1 < len(s) {
				b.WriteByte('\\')
				b.WriteByte(s[i+1])
				i += 2
				continue
			}
			i++
		case '"':
			return b.String(), i + 1, nil
		default:
			b.WriteByte(s[i])
			i++
		}
	}
	return "", 0, fmt.Errorf("unterminated double quote")
}

// expandInDouble expands $-substitutions inside a double-quoted string.
func (in *Interp) expandInDouble(content string) (string, error) {
	var b strings.Builder
	i := 0
	for i < len(content) {
		c := content[i]
		switch c {
		case '\\':
			if i+1 < len(content) {
				nxt := content[i+1]
				if nxt == '$' || nxt == '`' || nxt == '"' || nxt == '\\' {
					b.WriteByte(nxt)
					i += 2
					continue
				}
			}
			b.WriteByte('\\')
			i++
		case '$':
			val, n, err := in.expandDollar(content[i:])
			if err != nil {
				return "", err
			}
			b.WriteString(val)
			i += n
		case '`':
			end := strings.IndexByte(content[i+1:], '`')
			if end < 0 {
				return "", fmt.Errorf("unterminated backtick")
			}
			out, err := in.captureSub(content[i+1 : i+1+end])
			if err != nil {
				return "", err
			}
			b.WriteString(out)
			i += end + 2
		default:
			b.WriteByte(c)
			i++
		}
	}
	return b.String(), nil
}

// expandDollar expands one $-form at the start of s, returning the value
// and bytes consumed.
func (in *Interp) expandDollar(s string) (string, int, error) {
	if len(s) < 2 {
		return "$", 1, nil
	}
	switch {
	case strings.HasPrefix(s, "$(("):
		inner, n, err := balanced(s[1:], "((", "))")
		if err != nil {
			return "", 0, err
		}
		v, err := in.evalArith(inner)
		if err != nil {
			return "", 0, err
		}
		return fmt.Sprint(v), 1 + n, nil
	case strings.HasPrefix(s, "$("):
		inner, n, err := balanced(s[1:], "(", ")")
		if err != nil {
			return "", 0, err
		}
		out, err := in.captureSub(inner)
		if err != nil {
			return "", 0, err
		}
		return out, 1 + n, nil
	case strings.HasPrefix(s, "${"):
		inner, n, err := balanced(s[1:], "{", "}")
		if err != nil {
			return "", 0, err
		}
		return in.paramValue(inner), 1 + n, nil
	case s[1] == '?':
		return fmt.Sprint(in.lastExit), 2, nil
	case s[1] == '#':
		return "0", 2, nil
	default:
		j := 1
		for j < len(s) && (s[j] == '_' || s[j] >= 'a' && s[j] <= 'z' || s[j] >= 'A' && s[j] <= 'Z' || s[j] >= '0' && s[j] <= '9') {
			j++
		}
		if j == 1 {
			return "$", 1, nil
		}
		return in.Env[s[1:j]], j, nil
	}
}

// paramValue handles ${NAME}, ${NAME:-default}, ${#NAME}.
func (in *Interp) paramValue(inner string) string {
	if rest, ok := strings.CutPrefix(inner, "#"); ok {
		return fmt.Sprint(len(in.Env[rest]))
	}
	if idx := strings.Index(inner, ":-"); idx >= 0 {
		name, def := inner[:idx], inner[idx+2:]
		if v := in.Env[name]; v != "" {
			return v
		}
		return def
	}
	return in.Env[inner]
}

// balanced extracts the content between open..close starting at s[0].
func balanced(s, open, close string) (string, int, error) {
	if !strings.HasPrefix(s, open) {
		return "", 0, fmt.Errorf("expected %q", open)
	}
	depth := 1
	i := len(open)
	for i < len(s) {
		switch {
		case s[i] == '\'':
			end := strings.IndexByte(s[i+1:], '\'')
			if end < 0 {
				return "", 0, fmt.Errorf("unterminated quote in substitution")
			}
			i += end + 2
		case strings.HasPrefix(s[i:], close) && depth == 1:
			return s[len(open):i], i + len(close), nil
		case strings.HasPrefix(s[i:], open):
			depth++
			i += len(open)
		case strings.HasPrefix(s[i:], close):
			depth--
			i += len(close)
		default:
			i++
		}
	}
	return "", 0, fmt.Errorf("unterminated %s...%s", open, close)
}

// captureSub runs a command substitution and returns its stdout with
// trailing newlines trimmed. Substitutions inside loops re-run every
// iteration, so their scripts go through the AST cache too.
func (in *Interp) captureSub(script string) (string, error) {
	prog, err := ParseCached(script)
	if err != nil {
		return "", err
	}
	io := newIO("")
	in.execList(prog.stmts, io)
	return strings.TrimRight(io.Out.String(), "\n"), nil
}

// expandFields expands a raw word into argv fields: unquoted expansion
// results undergo IFS whitespace splitting, quoted parts do not.
func (in *Interp) expandFields(raw string) ([]string, error) {
	if plainWord(raw) {
		return []string{raw}, nil
	}
	parts, err := in.expandParts(raw)
	if err != nil {
		return nil, err
	}
	// Fields are accumulated in a builder so that a field assembled
	// from many fragments (adjacent quoted/unquoted parts) costs one
	// final allocation instead of a quadratic chain of string concats.
	var fields []string
	var cur strings.Builder
	open := false // a field is being accumulated
	appendText := func(t string) {
		cur.WriteString(t)
		open = true
	}
	closeField := func() {
		if open {
			fields = append(fields, cur.String())
			cur.Reset()
			open = false
		}
	}
	for _, p := range parts {
		if p.quoted {
			appendText(p.text)
			continue
		}
		rest := p.text
		for len(rest) > 0 {
			idx := strings.IndexAny(rest, " \t\n")
			if idx < 0 {
				appendText(rest)
				break
			}
			if idx > 0 {
				appendText(rest[:idx])
			}
			closeField()
			rest = strings.TrimLeft(rest[idx:], " \t\n")
		}
	}
	closeField()
	return fields, nil
}

// expandOne expands a raw word into a single string with no field
// splitting (assignments, redirect targets, condition operands).
func (in *Interp) expandOne(raw string) (string, error) {
	if plainWord(raw) {
		return raw, nil
	}
	parts, err := in.expandParts(raw)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, p := range parts {
		b.WriteString(p.text)
	}
	return b.String(), nil
}

// expandPattern expands a word for use as a glob pattern: text that was
// quoted has its glob metacharacters escaped so only unquoted * and ?
// act as wildcards.
func (in *Interp) expandPattern(raw string) (string, error) {
	parts, err := in.expandParts(raw)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, p := range parts {
		if p.quoted {
			b.WriteString(escapeGlob(p.text))
		} else {
			b.WriteString(p.text)
		}
	}
	return b.String(), nil
}

func escapeGlob(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '*', '?', '[', ']', '\\':
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// globMatch matches s against a pattern supporting *, ? and backslash
// escapes. Unlike path.Match, '*' crosses every character including '/'.
func globMatch(pattern, s string) bool {
	return globMatchAt(pattern, s)
}

func globMatchAt(p, s string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '*':
			p = p[1:]
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if globMatchAt(p, s[i:]) {
					return true
				}
			}
			return false
		case '?':
			if len(s) == 0 {
				return false
			}
			p, s = p[1:], s[1:]
		case '\\':
			if len(p) < 2 || len(s) == 0 || p[1] != s[0] {
				return false
			}
			p, s = p[2:], s[1:]
		default:
			if len(s) == 0 || p[0] != s[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
	return len(s) == 0
}
