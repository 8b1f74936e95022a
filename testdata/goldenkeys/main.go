// Command goldenkeys checks that a regenerated golden_stats.json differs
// from an earlier one only by appended counters: every cell's "stats" and
// "sites" objects are byte-identical, and every counter object of the
// sampled cells (each timeline sample's "delta" and the "measured"
// object) keeps its keys, order and values, with new keys only after
// them. It prints the appended keys.
//
//	git show <commit>:testdata/golden_stats.json > old.json
//	go run ./testdata/goldenkeys old.json testdata/golden_stats.json
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
)

// goldenCell mirrors the cell shape of golden_stats_test.go.
type goldenCell struct {
	Stats    json.RawMessage `json:"stats"`
	Timeline json.RawMessage `json:"timeline,omitempty"`
	Sites    json.RawMessage `json:"sites,omitempty"`
	Measured json.RawMessage `json:"measured,omitempty"`
}

// node is an order-preserving JSON value: an object (keys/vals), an
// array (elems) or a scalar literal.
type node struct {
	obj, arr bool
	keys     []string
	vals     []*node
	elems    []*node
	lit      string
}

func parse(raw []byte) (*node, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	return parseValue(dec)
}

func parseValue(dec *json.Decoder) (*node, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	switch tok {
	case json.Delim('{'):
		n := &node{obj: true}
		for dec.More() {
			k, err := dec.Token()
			if err != nil {
				return nil, err
			}
			v, err := parseValue(dec)
			if err != nil {
				return nil, err
			}
			n.keys = append(n.keys, k.(string))
			n.vals = append(n.vals, v)
		}
		_, err = dec.Token()
		return n, err
	case json.Delim('['):
		n := &node{arr: true}
		for dec.More() {
			v, err := parseValue(dec)
			if err != nil {
				return nil, err
			}
			n.elems = append(n.elems, v)
		}
		_, err = dec.Token()
		return n, err
	}
	return &node{lit: fmt.Sprintf("%T:%v", tok, tok)}, nil
}

// compare walks old and new in step. counters marks a counter object,
// where new may append keys; appended collects them.
func compare(path string, old, cur *node, counters bool, appended map[string]bool) error {
	switch {
	case old.obj && cur.obj:
		if len(cur.keys) < len(old.keys) || !slices.Equal(cur.keys[:len(old.keys)], old.keys) {
			return fmt.Errorf("%s: keys %v do not start with %v", path, cur.keys, old.keys)
		}
		if len(cur.keys) > len(old.keys) {
			if !counters {
				return fmt.Errorf("%s: keys %v added outside a counter object", path, cur.keys[len(old.keys):])
			}
			for _, k := range cur.keys[len(old.keys):] {
				appended[k] = true
			}
		}
		for i, k := range old.keys {
			if err := compare(path+"."+k, old.vals[i], cur.vals[i], k == "delta", appended); err != nil {
				return err
			}
		}
	case old.arr && cur.arr:
		if len(old.elems) != len(cur.elems) {
			return fmt.Errorf("%s: %d elements, was %d", path, len(cur.elems), len(old.elems))
		}
		for i := range old.elems {
			if err := compare(fmt.Sprintf("%s[%d]", path, i), old.elems[i], cur.elems[i], false, appended); err != nil {
				return err
			}
		}
	case old.obj || old.arr || cur.obj || cur.arr || old.lit != cur.lit:
		return fmt.Errorf("%s: value changed", path)
	}
	return nil
}

func load(path string) (map[string]goldenCell, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cells map[string]goldenCell
	return cells, json.Unmarshal(data, &cells)
}

func run(oldPath, newPath string) error {
	old, err := load(oldPath)
	if err != nil {
		return err
	}
	cur, err := load(newPath)
	if err != nil {
		return err
	}
	if len(old) != len(cur) {
		return fmt.Errorf("%d cells, was %d", len(cur), len(old))
	}
	appended := map[string]bool{}
	for key, o := range old {
		c, ok := cur[key]
		if !ok {
			return fmt.Errorf("cell %s missing", key)
		}
		if !bytes.Equal(o.Stats, c.Stats) || !bytes.Equal(o.Sites, c.Sites) {
			return fmt.Errorf("cell %s: stats or sites changed", key)
		}
		for _, part := range []struct {
			name     string
			old, cur json.RawMessage
		}{{"timeline", o.Timeline, c.Timeline}, {"measured", o.Measured, c.Measured}} {
			if (part.old == nil) != (part.cur == nil) {
				return fmt.Errorf("cell %s: %s present in only one file", key, part.name)
			}
			if part.old == nil {
				continue
			}
			on, err := parse(part.old)
			if err != nil {
				return err
			}
			cn, err := parse(part.cur)
			if err != nil {
				return err
			}
			if err := compare(key+" "+part.name, on, cn, part.name == "measured", appended); err != nil {
				return err
			}
		}
	}
	keys := make([]string, 0, len(appended))
	for k := range appended {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	fmt.Printf("%d cells: stats and sites byte-identical; counter objects differ only by %d appended keys: %s\n",
		len(cur), len(keys), strings.Join(keys, ", "))
	return nil
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: goldenkeys old.json new.json")
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2]); err != nil {
		fmt.Fprintln(os.Stderr, "goldenkeys:", err)
		os.Exit(1)
	}
}
