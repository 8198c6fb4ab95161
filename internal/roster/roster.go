// Package roster parses the node roster files the live deployment tools
// use: one "id host:port" line per overlay node, with #-comments.
package roster

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Roster maps overlay node ids to UDP addresses.
type Roster map[int]string

// Parse reads roster lines from r.
func Parse(r io.Reader) (Roster, error) {
	out := Roster{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("roster: line %d: want 'id host:port', got %q", lineNo, line)
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil || id < 0 {
			return nil, fmt.Errorf("roster: line %d: bad id %q", lineNo, fields[0])
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("roster: line %d: duplicate id %d", lineNo, id)
		}
		if !strings.Contains(fields[1], ":") {
			return nil, fmt.Errorf("roster: line %d: address %q missing port", lineNo, fields[1])
		}
		out[id] = fields[1]
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("roster: needs at least 2 nodes, has %d", len(out))
	}
	return out, nil
}

// Load parses a roster file.
func Load(path string) (Roster, error) {
	if path == "" {
		return nil, fmt.Errorf("roster: missing path")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// MaxID returns the largest node id, defining the overlay's id space.
func (r Roster) MaxID() int {
	maxID := 0
	for id := range r {
		if id > maxID {
			maxID = id
		}
	}
	return maxID
}

// IDs returns the sorted node ids.
func (r Roster) IDs() []int {
	out := make([]int, 0, len(r))
	for id := range r {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
