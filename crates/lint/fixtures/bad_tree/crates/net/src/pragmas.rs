//! Fixture: malformed pragmas. Each must surface as `bad-pragma`.

// qntn-lint: allow(no-such-rule) -- the rule id does not exist
// qntn-lint: allow(determinism)
pub fn noop() {}

// qntn-lint: allow(float-reducton) -- typo of the structural rule id
// qntn-lint: allow(result-swallow) -- a retired rule id; the workspace lint table carries it now
