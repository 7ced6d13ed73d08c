// Fixture for //accu:allow name checking: a directive naming an analyzer
// outside the suite suppresses nothing, so the unknown name is itself a
// finding.
package sim

var n int

// knownNames lists two suite analyzers; only one of them runs over this
// fixture, and neither name is a finding.
func knownNames() {
	//accu:allow detflow, maporder -- fixture: both names are in the suite
	n++
}

// misspelled names no analyzer: a typo for lockedio.
func misspelled() {
	//accu:allow lockdio -- fixture: typo
	n++
}

// mixed lists one suite analyzer and one unknown name; only the unknown
// name is reported.
func mixed() {
	//accu:allow maporder, nosuchcheck -- fixture: one stale name
	n++
}

// selfAllow names the unknown-name check itself, on the directive's own
// line: that name is not an analyzer either, and the finding stays live.
func selfAllow() {
	//accu:allow allow -- fixture: the check cannot be silenced
	n++
}
