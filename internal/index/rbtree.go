package index

import "repro/internal/storage"

// RBTree is a red-black tree from key word to the row ids carrying the
// key. It supports point lookups and ordered range scans; the paper builds
// one on VBAP(VBELN), a non-unique foreign key.
type RBTree struct {
	root *rbNode
	n    int
}

type rbColor bool

const (
	rbRed   rbColor = false
	rbBlack rbColor = true
)

type rbNode struct {
	key                 storage.Word
	rows                []int32
	color               rbColor
	left, right, parent *rbNode
}

// NewRBTree creates an empty tree.
func NewRBTree() *RBTree { return &RBTree{} }

// Len returns the number of (key,row) entries.
func (t *RBTree) Len() int { return t.n }

// Kind returns "rbtree".
func (t *RBTree) Kind() string { return KindRBTree }

// Clone deep-copies the tree, including the per-key row lists (Insert
// appends to them in place, so sharing their backing arrays would leak
// writes into the original).
func (t *RBTree) Clone() Index {
	var cp func(n, parent *rbNode) *rbNode
	cp = func(n, parent *rbNode) *rbNode {
		if n == nil {
			return nil
		}
		out := &rbNode{
			key:    n.key,
			rows:   append([]int32(nil), n.rows...),
			color:  n.color,
			parent: parent,
		}
		out.left = cp(n.left, out)
		out.right = cp(n.right, out)
		return out
	}
	return &RBTree{root: cp(t.root, nil), n: t.n}
}

// Insert registers row under key.
func (t *RBTree) Insert(key storage.Word, row int32) {
	t.n++
	if t.root == nil {
		t.root = &rbNode{key: key, rows: []int32{row}, color: rbBlack}
		return
	}
	cur := t.root
	for {
		switch {
		case key == cur.key:
			cur.rows = append(cur.rows, row)
			return
		case key < cur.key:
			if cur.left == nil {
				cur.left = &rbNode{key: key, rows: []int32{row}, parent: cur}
				t.fixInsert(cur.left)
				return
			}
			cur = cur.left
		default:
			if cur.right == nil {
				cur.right = &rbNode{key: key, rows: []int32{row}, parent: cur}
				t.fixInsert(cur.right)
				return
			}
			cur = cur.right
		}
	}
}

// Lookup appends all row ids stored under key to dst.
func (t *RBTree) Lookup(key storage.Word, dst []int32) []int32 {
	cur := t.root
	for cur != nil {
		switch {
		case key == cur.key:
			return append(dst, cur.rows...)
		case key < cur.key:
			cur = cur.left
		default:
			cur = cur.right
		}
	}
	return dst
}

func (t *RBTree) rotateLeft(x *rbNode) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *RBTree) rotateRight(x *rbNode) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func (t *RBTree) fixInsert(z *rbNode) {
	for z.parent != nil && z.parent.color == rbRed {
		gp := z.parent.parent
		if z.parent == gp.left {
			uncle := gp.right
			if uncle != nil && uncle.color == rbRed {
				z.parent.color = rbBlack
				uncle.color = rbBlack
				gp.color = rbRed
				z = gp
				continue
			}
			if z == z.parent.right {
				z = z.parent
				t.rotateLeft(z)
			}
			z.parent.color = rbBlack
			gp.color = rbRed
			t.rotateRight(gp)
		} else {
			uncle := gp.left
			if uncle != nil && uncle.color == rbRed {
				z.parent.color = rbBlack
				uncle.color = rbBlack
				gp.color = rbRed
				z = gp
				continue
			}
			if z == z.parent.left {
				z = z.parent
				t.rotateRight(z)
			}
			z.parent.color = rbBlack
			gp.color = rbRed
			t.rotateLeft(gp)
		}
	}
	t.root.color = rbBlack
}
