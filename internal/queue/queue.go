// Package queue implements the serial waiting queue of Algorithms T0
// and T (paper, Sec. 4): a FIFO of process ids supporting O(1) Enqueue,
// Dequeue, and Remove-from-the-middle, stored entirely in simulated
// shared memory.
//
// The queue is *serial*: the paper's barrier mechanism guarantees that
// at most one process operates on it at a time, so no internal
// synchronization is needed — but every access still costs simulated
// memory operations, keeping the RMR accounting honest.
package queue

import "fetchphi/internal/memsim"

// Word is re-exported for brevity.
type Word = memsim.Word

// nilRef encodes "no process" in the link arrays (process p is stored
// as p+1).
const nilRef Word = 0

// Queue is a doubly linked list threaded through per-process link
// cells, so each process appears at most once and removal by id is
// O(1).
type Queue struct {
	head memsim.Var
	tail memsim.Var
	next []memsim.Var
	prev []memsim.Var
	in   []memsim.Var // membership flags
}

// New allocates an empty queue for m's N processes.
func New(m *memsim.Machine, name string) *Queue {
	n := m.NumProcs()
	return &Queue{
		head: m.NewVar(name+".head", memsim.HomeGlobal, nilRef),
		tail: m.NewVar(name+".tail", memsim.HomeGlobal, nilRef),
		next: m.NewArray(name+".next", n, memsim.HomeGlobal, nilRef),
		prev: m.NewArray(name+".prev", n, memsim.HomeGlobal, nilRef),
		in:   m.NewArray(name+".in", n, memsim.HomeGlobal, 0),
	}
}

// Enqueue appends process id to the queue. It is idempotent: if id is
// already present, nothing changes (the paper enqueues a discovered
// waiter "if it has not already been added by some other process").
func (q *Queue) Enqueue(p *memsim.Proc, id int) {
	if p.Read(q.in[id]) != 0 {
		return
	}
	p.Write(q.in[id], 1)
	old := p.Read(q.tail)
	p.Write(q.tail, Word(id)+1)
	p.Write(q.next[id], nilRef)
	p.Write(q.prev[id], old)
	if old == nilRef {
		p.Write(q.head, Word(id)+1)
	} else {
		p.Write(q.next[old-1], Word(id)+1)
	}
}

// Dequeue removes and returns the process at the head, or -1 if the
// queue is empty.
func (q *Queue) Dequeue(p *memsim.Proc) int {
	h := p.Read(q.head)
	if h == nilRef {
		return -1
	}
	id := int(h - 1)
	q.unlink(p, id)
	return id
}

// Remove deletes process id from the queue if present (the paper's
// Remove(WaitingQueue, p), used by a process to make sure it is not
// promoted again after finishing).
func (q *Queue) Remove(p *memsim.Proc, id int) {
	if p.Read(q.in[id]) == 0 {
		return
	}
	q.unlink(p, id)
}

// unlink splices id out of the list and clears its membership.
func (q *Queue) unlink(p *memsim.Proc, id int) {
	nx := p.Read(q.next[id])
	pv := p.Read(q.prev[id])
	if pv == nilRef {
		p.Write(q.head, nx)
	} else {
		p.Write(q.next[pv-1], nx)
	}
	if nx == nilRef {
		p.Write(q.tail, pv)
	} else {
		p.Write(q.prev[nx-1], pv)
	}
	p.Write(q.in[id], 0)
}

// Empty reports whether the queue is empty.
func (q *Queue) Empty(p *memsim.Proc) bool {
	return p.Read(q.head) == nilRef
}
