// Topology spec grammar, the -topo flag's input language. A spec is a
// comma-separated list of root ports; each port is "_" (empty) or a
// node; a node is a kind with optional attributes, children, and a
// replication count:
//
//	spec  := port ("," port)*
//	port  := "_" | node
//	node  := kind attr* [ "(" spec ")" ] [ "*" INT ]
//	attr  := ":x" INT        lane width
//	       | ":g" INT        generation (1-3)
//	       | ":c" INT        uniform flow-control credits (per class:
//	                         INT headers, 4*INT data units)
//	       | "@" NAME        explicit node name
//	kind  := "switch" | "sw" | "disk" | "nic" | "testdev" | "td"
//
// Examples: "switch:x4(disk*8)" is the fanout8 scenario;
// "switch:x4(disk,nic)" is the p2p scenario. Input starting with "{"
// is parsed as the JSON form of Spec instead. Whitespace is free.
package topo

import (
	"encoding/json"
	"fmt"
	"strings"

	"pciesim/internal/pcie"
)

// Parser hardening caps: the grammar is fuzzed, so every dimension of
// the input is bounded before any allocation proportional to it.
const (
	maxSpecLen   = 64 << 10
	maxNodes     = 1024
	maxDepth     = 32
	maxReplicate = 256
)

// Parse builds a Spec from the text grammar (or JSON when the input
// starts with "{"), normalizes it, and validates it. Any malformed
// input returns an error; Parse never panics.
func Parse(input string) (*Spec, error) {
	if len(input) > maxSpecLen {
		return nil, fmt.Errorf("topo: spec longer than %d bytes", maxSpecLen)
	}
	trimmed := strings.TrimSpace(input)
	if trimmed == "" {
		return nil, fmt.Errorf("topo: empty spec")
	}
	var spec *Spec
	if trimmed[0] == '{' {
		spec = &Spec{}
		if err := json.Unmarshal([]byte(trimmed), spec); err != nil {
			return nil, fmt.Errorf("topo: bad JSON spec: %v", err)
		}
		if n := countNodes(spec); n > maxNodes {
			return nil, fmt.Errorf("topo: spec has %d nodes, cap is %d", n, maxNodes)
		}
		if d := depthOf(spec); d > maxDepth {
			return nil, fmt.Errorf("topo: spec depth %d exceeds cap %d", d, maxDepth)
		}
	} else {
		p := &parser{in: trimmed}
		ports, err := p.ports(0)
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos != len(p.in) {
			return nil, fmt.Errorf("topo: trailing input at byte %d: %q", p.pos, p.rest())
		}
		spec = &Spec{RootPorts: ports}
	}
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	return spec, nil
}

type parser struct {
	in    string
	pos   int
	nodes int
}

func (p *parser) rest() string {
	r := p.in[p.pos:]
	if len(r) > 16 {
		r = r[:16] + "..."
	}
	return r
}

func (p *parser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t' || p.in[p.pos] == '\n' || p.in[p.pos] == '\r') {
		p.pos++
	}
}

func (p *parser) peek() byte {
	if p.pos < len(p.in) {
		return p.in[p.pos]
	}
	return 0
}

// ports parses a comma-separated port list at the given nesting depth.
func (p *parser) ports(depth int) ([]*Node, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("topo: nesting deeper than %d", maxDepth)
	}
	var out []*Node
	for {
		p.skipSpace()
		if p.peek() == '_' {
			p.pos++
			out = append(out, nil)
		} else {
			nodes, err := p.node(depth)
			if err != nil {
				return nil, err
			}
			out = append(out, nodes...)
		}
		if len(out) > maxFanout {
			return nil, fmt.Errorf("topo: more than %d ports in one list", maxFanout)
		}
		p.skipSpace()
		if p.peek() != ',' {
			return out, nil
		}
		p.pos++
	}
}

// node parses one node (possibly replicated into several).
func (p *parser) node(depth int) ([]*Node, error) {
	kind, err := p.kind()
	if err != nil {
		return nil, err
	}
	p.nodes++
	if p.nodes > maxNodes {
		return nil, fmt.Errorf("topo: more than %d nodes", maxNodes)
	}
	n := &Node{Kind: kind}
	for {
		p.skipSpace()
		switch p.peek() {
		case ':':
			p.pos++
			switch p.peek() {
			case 'x':
				p.pos++
				v, err := p.number()
				if err != nil {
					return nil, err
				}
				// 0 would read as "unset" and silently default; reject it
				// here so an explicit width is always honored or refused.
				if v == 0 {
					return nil, fmt.Errorf("topo: explicit width x0 at byte %d", p.pos)
				}
				n.Link.Width = v
			case 'g':
				p.pos++
				v, err := p.number()
				if err != nil {
					return nil, err
				}
				if v == 0 {
					return nil, fmt.Errorf("topo: explicit generation g0 at byte %d", p.pos)
				}
				n.Link.Gen = pcie.Generation(v)
			case 'c':
				p.pos++
				v, err := p.number()
				if err != nil {
					return nil, err
				}
				// 0 on the wire means infinite; an explicit :c0 is more
				// likely a typo than a request for legacy mode, so refuse
				// it ("disable FC" is spelled by omitting the attribute).
				if v == 0 {
					return nil, fmt.Errorf("topo: explicit credits c0 at byte %d", p.pos)
				}
				c := pcie.UniformCredits(v)
				n.Link.Credits = &c
			default:
				return nil, fmt.Errorf("topo: expected x, g, or c after ':' at byte %d: %q", p.pos, p.rest())
			}
			continue
		case '@':
			p.pos++
			name := p.ident()
			if name == "" {
				return nil, fmt.Errorf("topo: expected name after '@' at byte %d: %q", p.pos, p.rest())
			}
			n.Name = name
			continue
		}
		break
	}
	if p.peek() == '(' {
		if kind != KindSwitch {
			return nil, fmt.Errorf("topo: endpoint %q cannot have a port list", kind)
		}
		p.pos++
		children, err := p.ports(depth + 1)
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return nil, fmt.Errorf("topo: expected ')' at byte %d: %q", p.pos, p.rest())
		}
		p.pos++
		n.Ports = children
	}
	p.skipSpace()
	count := 1
	if p.peek() == '*' {
		p.pos++
		v, err := p.number()
		if err != nil {
			return nil, err
		}
		if v < 1 || v > maxReplicate {
			return nil, fmt.Errorf("topo: replication count %d outside 1..%d", v, maxReplicate)
		}
		count = v
	}
	if count == 1 {
		return []*Node{n}, nil
	}
	// Replication clones the subtree; explicit names would collide, so
	// only anonymous subtrees replicate (Normalize names each clone).
	if hasName(n) {
		return nil, fmt.Errorf("topo: cannot replicate a subtree with explicit names")
	}
	extra := countSubtree(n) * (count - 1)
	if p.nodes+extra > maxNodes {
		return nil, fmt.Errorf("topo: more than %d nodes", maxNodes)
	}
	p.nodes += extra
	out := make([]*Node, count)
	out[0] = n
	for i := 1; i < count; i++ {
		out[i] = cloneNode(n)
	}
	return out, nil
}

func (p *parser) kind() (Kind, error) {
	word := p.ident()
	switch word {
	case "switch", "sw":
		return KindSwitch, nil
	case "disk":
		return KindDisk, nil
	case "nic":
		return KindNIC, nil
	case "testdev", "td":
		return KindTestDev, nil
	}
	return "", fmt.Errorf("topo: unknown node kind %q at byte %d", word, p.pos)
}

func (p *parser) ident() string {
	start := p.pos
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '.' || c == '-' {
			p.pos++
		} else {
			break
		}
	}
	return p.in[start:p.pos]
}

func (p *parser) number() (int, error) {
	start := p.pos
	for p.pos < len(p.in) && p.in[p.pos] >= '0' && p.in[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start || p.pos-start > 4 {
		return 0, fmt.Errorf("topo: expected a number (1-4 digits) at byte %d: %q", start, p.rest())
	}
	v := 0
	for _, c := range []byte(p.in[start:p.pos]) {
		v = v*10 + int(c-'0')
	}
	return v, nil
}

func hasName(n *Node) bool {
	if n == nil {
		return false
	}
	if n.Name != "" || n.Link.Name != "" {
		return true
	}
	for _, c := range n.Ports {
		if hasName(c) {
			return true
		}
	}
	return false
}

func countSubtree(n *Node) int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Ports {
		total += countSubtree(c)
	}
	return total
}

func countNodes(s *Spec) int {
	total := 0
	for _, rp := range s.RootPorts {
		total += countSubtree(rp)
	}
	return total
}

func depthOf(s *Spec) int {
	var rec func(n *Node) int
	rec = func(n *Node) int {
		if n == nil {
			return 0
		}
		deepest := 0
		for _, c := range n.Ports {
			if d := rec(c); d > deepest {
				deepest = d
			}
		}
		return 1 + deepest
	}
	deepest := 0
	for _, rp := range s.RootPorts {
		if d := rec(rp); d > deepest {
			deepest = d
		}
	}
	return deepest
}

// cloneNode deep-copies an anonymous subtree for replication.
func cloneNode(n *Node) *Node {
	if n == nil {
		return nil
	}
	c := &Node{Kind: n.Kind, Link: n.Link}
	if len(n.Ports) > 0 {
		c.Ports = make([]*Node, len(n.Ports))
		for i, ch := range n.Ports {
			c.Ports[i] = cloneNode(ch)
		}
	}
	return c
}

// String renders the spec in the text grammar. It is lossy for link
// metadata (link names, error rates, fault plans, non-uniform credit
// configurations), but the rendered
// text always re-parses to a spec with the same structure, names,
// widths, and generations.
func (s *Spec) String() string {
	var b strings.Builder
	writePorts(&b, s.RootPorts)
	return b.String()
}

func writePorts(b *strings.Builder, ports []*Node) {
	for i, n := range ports {
		if i > 0 {
			b.WriteByte(',')
		}
		if n == nil {
			b.WriteByte('_')
			continue
		}
		b.WriteString(string(n.Kind))
		if n.Link.Width != 0 {
			fmt.Fprintf(b, ":x%d", n.Link.Width)
		}
		if n.Link.Gen != 0 {
			fmt.Fprintf(b, ":g%d", int(n.Link.Gen))
		}
		// Only the uniform shape is expressible in the grammar; other
		// credit configs fall under the documented lossiness.
		if c := n.Link.Credits; c != nil {
			if u := c.PostedHdr; u > 0 && *c == pcie.UniformCredits(u) {
				fmt.Fprintf(b, ":c%d", u)
			}
		}
		if n.Name != "" {
			fmt.Fprintf(b, "@%s", n.Name)
		}
		if len(n.Ports) > 0 {
			b.WriteByte('(')
			writePorts(b, n.Ports)
			b.WriteByte(')')
		}
	}
}
