//go:build go1.23

// iter.Pull is newer than the module's go line; the build tag raises this
// one file's language version so vet accepts it.

package sched

import "iter"

// startCoro makes t's coroutine: it runs t.body to completion once per
// resume by newThread, then yields and idles until the next start, and
// returns once stop is called.
func (t *Thread) startCoro() {
	t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		for {
			t.run(t.body)
			if !yield(struct{}{}) {
				return
			}
		}
	})
}
