package dedup

import (
	"bytes"
)

// Tree is the "bin tree" of §3.1: the in-memory sorted store holding the
// bulk of a bin's hash-table entries. It is a left-leaning red-black tree
// keyed on truncated fingerprints, augmented with subtree sizes so a
// uniformly random entry can be selected for eviction under memory
// pressure. Probe and insert report the number of nodes touched, which the
// CPU cost model converts into virtual time.
//
// A Tree is confined to its bin's owning worker, so it needs no locking —
// that is the point of the bin-based design.
type Tree struct {
	root *treeNode
}

type treeNode struct {
	key         []byte
	val         Entry
	left, right *treeNode
	size        int
	red         bool
}

func nodeSize(n *treeNode) int {
	if n == nil {
		return 0
	}
	return n.size
}

func isRed(n *treeNode) bool { return n != nil && n.red }

// Len returns the number of entries in the tree.
func (t *Tree) Len() int { return nodeSize(t.root) }

// Get looks up a key and returns its entry, the number of nodes visited,
// and whether it was found.
func (t *Tree) Get(key []byte) (Entry, int, bool) {
	n := t.root
	steps := 0
	for n != nil {
		steps++
		switch c := bytes.Compare(key, n.key); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			return n.val, steps, true
		}
	}
	return Entry{}, steps, false
}

// Insert adds or replaces an entry and returns the number of nodes visited
// on the way down and whether an existing entry was replaced.
func (t *Tree) Insert(key []byte, v Entry) (steps int, replaced bool) {
	t.root, steps, replaced = insert(t.root, key, v)
	t.root.red = false
	return steps, replaced
}

func insert(n *treeNode, key []byte, v Entry) (*treeNode, int, bool) {
	if n == nil {
		return &treeNode{key: key, val: v, size: 1, red: true}, 1, false
	}
	var steps int
	var replaced bool
	switch c := bytes.Compare(key, n.key); {
	case c < 0:
		n.left, steps, replaced = insert(n.left, key, v)
	case c > 0:
		n.right, steps, replaced = insert(n.right, key, v)
	default:
		n.val = v
		return n, 1, true
	}
	return fixUp(n), steps + 1, replaced
}

// KeyAt returns the key and entry with the given in-order rank (0-based).
// It returns ok=false if rank is out of range.
func (t *Tree) KeyAt(rank int) (key []byte, v Entry, ok bool) {
	if rank < 0 || rank >= t.Len() {
		return nil, Entry{}, false
	}
	n := t.root
	for {
		ls := nodeSize(n.left)
		switch {
		case rank < ls:
			n = n.left
		case rank > ls:
			rank -= ls + 1
			n = n.right
		default:
			return n.key, n.val, true
		}
	}
}

// Delete removes a key if present and reports whether it was removed.
func (t *Tree) Delete(key []byte) bool {
	if t.root == nil {
		return false
	}
	if _, _, found := t.Get(key); !found {
		return false
	}
	t.root = del(t.root, key)
	if t.root != nil {
		t.root.red = false
	}
	return true
}

// DeleteAt removes the entry with the given in-order rank, returning the
// removed key and entry. Used by memory-pressure eviction.
func (t *Tree) DeleteAt(rank int) (key []byte, v Entry, ok bool) {
	key, v, ok = t.KeyAt(rank)
	if !ok {
		return nil, Entry{}, false
	}
	t.Delete(key)
	return key, v, true
}

// Walk visits every entry in key order; fn returning false stops the walk.
func (t *Tree) Walk(fn func(key []byte, v Entry) bool) {
	walk(t.root, fn)
}

func walk(n *treeNode, fn func([]byte, Entry) bool) bool {
	if n == nil {
		return true
	}
	return walk(n.left, fn) && fn(n.key, n.val) && walk(n.right, fn)
}

// --- LLRB mechanics (Sedgewick), size-augmented ---

func rotateLeft(n *treeNode) *treeNode {
	x := n.right
	n.right = x.left
	x.left = n
	x.red = n.red
	n.red = true
	x.size = n.size
	n.size = 1 + nodeSize(n.left) + nodeSize(n.right)
	return x
}

func rotateRight(n *treeNode) *treeNode {
	x := n.left
	n.left = x.right
	x.right = n
	x.red = n.red
	n.red = true
	x.size = n.size
	n.size = 1 + nodeSize(n.left) + nodeSize(n.right)
	return x
}

func flipColors(n *treeNode) {
	n.red = !n.red
	n.left.red = !n.left.red
	n.right.red = !n.right.red
}

func fixUp(n *treeNode) *treeNode {
	if isRed(n.right) && !isRed(n.left) {
		n = rotateLeft(n)
	}
	if isRed(n.left) && isRed(n.left.left) {
		n = rotateRight(n)
	}
	if isRed(n.left) && isRed(n.right) {
		flipColors(n)
	}
	n.size = 1 + nodeSize(n.left) + nodeSize(n.right)
	return n
}

func moveRedLeft(n *treeNode) *treeNode {
	flipColors(n)
	if isRed(n.right.left) {
		n.right = rotateRight(n.right)
		n = rotateLeft(n)
		flipColors(n)
	}
	return n
}

func moveRedRight(n *treeNode) *treeNode {
	flipColors(n)
	if isRed(n.left.left) {
		n = rotateRight(n)
		flipColors(n)
	}
	return n
}

func minNode(n *treeNode) *treeNode {
	for n.left != nil {
		n = n.left
	}
	return n
}

func deleteMin(n *treeNode) *treeNode {
	if n.left == nil {
		return nil
	}
	if !isRed(n.left) && !isRed(n.left.left) {
		n = moveRedLeft(n)
	}
	n.left = deleteMin(n.left)
	return fixUp(n)
}

func del(n *treeNode, key []byte) *treeNode {
	if bytes.Compare(key, n.key) < 0 {
		if !isRed(n.left) && !isRed(n.left.left) {
			n = moveRedLeft(n)
		}
		n.left = del(n.left, key)
	} else {
		if isRed(n.left) {
			n = rotateRight(n)
		}
		if bytes.Equal(key, n.key) && n.right == nil {
			return nil
		}
		if !isRed(n.right) && !isRed(n.right.left) {
			n = moveRedRight(n)
		}
		if bytes.Equal(key, n.key) {
			m := minNode(n.right)
			n.key, n.val = m.key, m.val
			n.right = deleteMin(n.right)
		} else {
			n.right = del(n.right, key)
		}
	}
	return fixUp(n)
}

// checkInvariants validates red-black and size invariants; used by tests.
// It returns the black height, or -1 if an invariant is violated.
func (t *Tree) checkInvariants() int {
	if isRed(t.root) {
		return -1
	}
	return check(t.root, nil, nil)
}

func check(n *treeNode, lo, hi []byte) int {
	if n == nil {
		return 0
	}
	if lo != nil && bytes.Compare(n.key, lo) <= 0 {
		return -1
	}
	if hi != nil && bytes.Compare(n.key, hi) >= 0 {
		return -1
	}
	if isRed(n.right) {
		return -1 // right-leaning red link
	}
	if isRed(n) && isRed(n.left) {
		return -1 // consecutive red links
	}
	if n.size != 1+nodeSize(n.left)+nodeSize(n.right) {
		return -1
	}
	lh := check(n.left, lo, n.key)
	rh := check(n.right, n.key, hi)
	if lh < 0 || rh < 0 || lh != rh {
		return -1
	}
	if !isRed(n) {
		return lh + 1
	}
	return lh
}
