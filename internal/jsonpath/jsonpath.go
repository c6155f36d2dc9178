// Package jsonpath evaluates the subset of kubectl's JSONPath templates
// that CloudEval-YAML unit tests use with "kubectl get -o jsonpath=...":
//
//	{.status.hostIP}
//	{.items[0].spec.containers[0].env[*].name}
//	{.items..metadata.name}
//	{.spec.containers[0].resources.limits.cpu}
//
// A template mixes literal text with {expression} segments. Expressions
// are chains of steps over the object tree: field access (.name or
// ['name']), index ([0]), wildcard ([*]), and recursive descent
// (..name). Multiple results within one expression join with single
// spaces, matching kubectl.
package jsonpath

import (
	"fmt"
	"strconv"
	"strings"

	"cloudeval/internal/memo"
	"cloudeval/internal/yamlx"
)

// Eval renders a JSONPath template against a YAML tree.
func Eval(root *yamlx.Node, template string) (string, error) {
	var out strings.Builder
	i := 0
	for i < len(template) {
		c := template[i]
		if c != '{' {
			out.WriteByte(c)
			i++
			continue
		}
		end := strings.IndexByte(template[i:], '}')
		if end < 0 {
			return "", fmt.Errorf("jsonpath: unterminated '{' in %q", template)
		}
		expr := template[i+1 : i+end]
		i += end + 1
		res, err := EvalExpr(root, expr)
		if err != nil {
			return "", err
		}
		parts := make([]string, len(res))
		for j, n := range res {
			parts[j] = render(n)
		}
		out.WriteString(strings.Join(parts, " "))
	}
	return out.String(), nil
}

func render(n *yamlx.Node) string {
	if n == nil {
		return ""
	}
	if n.IsScalar() {
		return n.ScalarString()
	}
	return string(yamlx.MarshalFlow(n))
}

// EvalExpr evaluates one bare expression like ".items[0].metadata.name"
// and returns every matching node.
func EvalExpr(root *yamlx.Node, expr string) ([]*yamlx.Node, error) {
	expr = strings.TrimSpace(expr)
	if strings.HasPrefix(expr, "range") || strings.HasPrefix(expr, "end") {
		return nil, fmt.Errorf("jsonpath: range templates are not supported: %q", expr)
	}
	expr = strings.TrimPrefix(expr, "$")
	steps, err := parseStepsCached(expr)
	if err != nil {
		return nil, err
	}
	current := []*yamlx.Node{root}
	for _, st := range steps {
		var next []*yamlx.Node
		for _, n := range current {
			next = append(next, st.apply(n)...)
		}
		current = next
	}
	return current, nil
}

type stepKind int

const (
	fieldStep stepKind = iota
	indexStep
	wildcardStep
	recursiveStep
)

type step struct {
	kind  stepKind
	name  string
	index int
}

func (s step) apply(n *yamlx.Node) []*yamlx.Node {
	if n == nil {
		return nil
	}
	switch s.kind {
	case fieldStep:
		if v := n.Get(s.name); v != nil {
			return []*yamlx.Node{v}
		}
		return nil
	case indexStep:
		if n.Kind == yamlx.SeqKind && s.index >= 0 && s.index < len(n.Items) {
			return []*yamlx.Node{n.Items[s.index]}
		}
		return nil
	case wildcardStep:
		switch n.Kind {
		case yamlx.SeqKind:
			return n.Items
		case yamlx.MapKind:
			var out []*yamlx.Node
			for _, e := range n.Entries {
				out = append(out, e.Value)
			}
			return out
		}
		return nil
	case recursiveStep:
		var out []*yamlx.Node
		collectRecursive(n, s.name, &out)
		return out
	}
	return nil
}

func collectRecursive(n *yamlx.Node, name string, out *[]*yamlx.Node) {
	if n == nil {
		return
	}
	switch n.Kind {
	case yamlx.MapKind:
		for _, e := range n.Entries {
			if e.Key == name {
				*out = append(*out, e.Value)
			}
			collectRecursive(e.Value, name, out)
		}
	case yamlx.SeqKind:
		for _, it := range n.Items {
			collectRecursive(it, name, out)
		}
	}
}

// parseStepsCached compiles an expression once per process: the same
// handful of templates run on every unit-test execution, and a step
// slice is immutable after parse, so compiled expressions are shared.
// Expressions come from script text, so the cache is capped (see the
// memo package).
func parseStepsCached(expr string) ([]step, error) {
	o, _, _ := stepCache.Do(expr, func() (*stepsOutcome, error) {
		steps, err := parseSteps(expr)
		return &stepsOutcome{steps: steps, err: err}, nil
	})
	return o.steps, o.err
}

type stepsOutcome struct {
	steps []step
	err   error
}

var stepCache = memo.NewSharded[string, *stepsOutcome](memo.HashString, 1<<14)

func parseSteps(expr string) ([]step, error) {
	var steps []step
	i := 0
	for i < len(expr) {
		switch {
		case strings.HasPrefix(expr[i:], ".."):
			i += 2
			name, n := readName(expr[i:])
			if name == "" {
				return nil, fmt.Errorf("jsonpath: '..' must be followed by a field name in %q", expr)
			}
			i += n
			steps = append(steps, step{kind: recursiveStep, name: name})
		case expr[i] == '.':
			i++
			if i < len(expr) && expr[i] == '[' {
				continue // ".[0]" form
			}
			name, n := readName(expr[i:])
			if name == "" {
				if i >= len(expr) {
					return steps, nil // trailing "." tolerated
				}
				return nil, fmt.Errorf("jsonpath: empty field name at %q", expr[i:])
			}
			i += n
			steps = append(steps, step{kind: fieldStep, name: name})
		case expr[i] == '[':
			end := strings.IndexByte(expr[i:], ']')
			if end < 0 {
				return nil, fmt.Errorf("jsonpath: unterminated '[' in %q", expr)
			}
			inner := strings.TrimSpace(expr[i+1 : i+end])
			i += end + 1
			switch {
			case inner == "*":
				steps = append(steps, step{kind: wildcardStep})
			case len(inner) >= 2 && (inner[0] == '\'' || inner[0] == '"'):
				steps = append(steps, step{kind: fieldStep, name: unescapeField(inner[1 : len(inner)-1])})
			default:
				idx, err := strconv.Atoi(inner)
				if err != nil {
					return nil, fmt.Errorf("jsonpath: bad index %q", inner)
				}
				steps = append(steps, step{kind: indexStep, index: idx})
			}
		case expr[i] == ' ':
			i++
		default:
			// Leading bare name (no dot), e.g. "metadata.name".
			name, n := readName(expr[i:])
			if name == "" {
				return nil, fmt.Errorf("jsonpath: unexpected character %q in %q", expr[i], expr)
			}
			i += n
			steps = append(steps, step{kind: fieldStep, name: name})
		}
	}
	return steps, nil
}

// unescapeField strips kubectl-style backslash escapes in quoted field
// names, so ['log\.level'] addresses the literal key "log.level".
func unescapeField(s string) string {
	if !strings.Contains(s, "\\") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func readName(s string) (string, int) {
	i := 0
	for i < len(s) {
		c := s[i]
		if c == '.' || c == '[' || c == ']' || c == ' ' {
			break
		}
		i++
	}
	return s[:i], i
}
