//! Consistency checks for branch-profile data.
//!
//! Raw per-branch counters reach the workspace from places the VM did not
//! write: raw profile files (`mflint --profile`), profile databases read
//! back from disk, and hand-edited data. Each can be corrupted (truncated
//! files, bit flips, hand edits). The checks here accept plain
//! `(branch, executed, taken)` tuples so they sit below every consumer in
//! the dependency graph: the bench collection asserts each recorded run
//! is clean, `mfbench::suite_skew` validates every prior dataset before
//! remapping it, the chaos battery checks what the profile service serves
//! back, the fuzzer checks every run's counters, and the lint driver
//! checks profile files against a program.

use std::collections::BTreeSet;
use std::fmt;

use trace_ir::{BranchId, Program};

/// One inconsistency found in profile data.
#[derive(Clone, Debug, PartialEq)]
pub enum ProfileIssue {
    /// A branch was recorded taken more often than it executed.
    TakenExceedsExecuted {
        /// The offending branch.
        branch: BranchId,
        /// Times the branch executed.
        executed: u64,
        /// Times it was recorded taken.
        taken: u64,
    },
    /// A counter refers to a branch id the program never registered.
    UnknownBranch {
        /// The unregistered branch id.
        branch: BranchId,
        /// Number of branch-info entries the program has.
        known: usize,
    },
    /// The same branch id appears more than once in one profile.
    DuplicateBranch {
        /// The repeated branch id.
        branch: BranchId,
    },
}

impl fmt::Display for ProfileIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileIssue::TakenExceedsExecuted {
                branch,
                executed,
                taken,
            } => write!(
                f,
                "{branch}: taken count {taken} exceeds execution count {executed}"
            ),
            ProfileIssue::UnknownBranch { branch, known } => write!(
                f,
                "{branch}: program registers only {known} branches (br0..br{})",
                known.saturating_sub(1)
            ),
            ProfileIssue::DuplicateBranch { branch } => {
                write!(f, "{branch}: branch appears more than once in the profile")
            }
        }
    }
}

/// Checks raw `(branch, executed, taken)` counters for internal
/// consistency: `taken ≤ executed` and no duplicate branch ids.
pub fn check_entries(entries: &[(BranchId, u64, u64)]) -> Vec<ProfileIssue> {
    let mut issues = Vec::new();
    let mut seen = BTreeSet::new();
    for &(branch, executed, taken) in entries {
        if !seen.insert(branch) {
            issues.push(ProfileIssue::DuplicateBranch { branch });
        }
        if taken > executed {
            issues.push(ProfileIssue::TakenExceedsExecuted {
                branch,
                executed,
                taken,
            });
        }
    }
    issues
}

/// [`check_entries`] plus the program-relative check: every counter must
/// name a branch the program registered in its branch-info table.
pub fn check_against_program(
    program: &Program,
    entries: &[(BranchId, u64, u64)],
) -> Vec<ProfileIssue> {
    let known = program.branch_info.len();
    let mut issues = check_entries(entries);
    for &(branch, _, _) in entries {
        if branch.index() >= known {
            issues.push(ProfileIssue::UnknownBranch { branch, known });
        }
    }
    issues
}

/// A parse failure in a raw profile file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawProfileError {
    /// 1-based line number of the malformed row.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for RawProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for RawProfileError {}

/// Parses the raw counter format used by `mflint --profile`: one
/// `br<id> <executed> <taken>` row per line (the `br` prefix is
/// optional), `#` comments, blank lines ignored. Unlike directive files,
/// this format can represent corrupt counters, which is the point — it is
/// what the consistency checker is run against.
///
/// # Errors
///
/// Returns the first malformed row.
pub fn parse_raw_profile(text: &str) -> Result<Vec<(BranchId, u64, u64)>, RawProfileError> {
    let mut rows = Vec::new();
    for (i, raw_line) in text.lines().enumerate() {
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let err = |message: String| RawProfileError {
            line: i + 1,
            message,
        };
        let id_field = fields.next().expect("non-empty line has a first field");
        let id_digits = id_field.strip_prefix("br").unwrap_or(id_field);
        let id: u32 = id_digits
            .parse()
            .map_err(|_| err(format!("bad branch id `{id_field}`")))?;
        let executed: u64 = fields
            .next()
            .ok_or_else(|| err("missing execution count".to_string()))?
            .parse()
            .map_err(|_| err("bad execution count".to_string()))?;
        let taken: u64 = fields
            .next()
            .ok_or_else(|| err("missing taken count".to_string()))?
            .parse()
            .map_err(|_| err("bad taken count".to_string()))?;
        if let Some(junk) = fields.next() {
            return Err(err(format!("trailing field `{junk}`")));
        }
        rows.push((BranchId(id), executed, taken));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_entries_pass() {
        let entries = [
            (BranchId(0), 10, 4),
            (BranchId(1), 3, 3),
            (BranchId(2), 0, 0),
        ];
        assert!(check_entries(&entries).is_empty());
    }

    #[test]
    fn taken_above_executed_is_flagged() {
        let entries = [(BranchId(0), 5, 9)];
        let issues = check_entries(&entries);
        assert_eq!(
            issues,
            vec![ProfileIssue::TakenExceedsExecuted {
                branch: BranchId(0),
                executed: 5,
                taken: 9,
            }]
        );
        assert!(issues[0].to_string().contains("br0"));
    }

    #[test]
    fn duplicates_are_flagged() {
        let entries = [(BranchId(3), 1, 0), (BranchId(3), 2, 1)];
        let issues = check_entries(&entries);
        assert_eq!(
            issues,
            vec![ProfileIssue::DuplicateBranch {
                branch: BranchId(3)
            }]
        );
    }

    #[test]
    fn unknown_branches_need_a_program() {
        use trace_ir::builder::{FunctionBuilder, ProgramBuilder};
        use trace_ir::BranchKind;
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main", 1);
        let t = f.new_block();
        let e = f.new_block();
        f.branch(f.param(0), t, e, 1, BranchKind::If);
        f.switch_to(t);
        f.ret(None);
        f.switch_to(e);
        f.ret(None);
        pb.add_function(f.finish());
        let p = pb.finish("main").unwrap();
        assert_eq!(p.branch_info.len(), 1);

        let issues = check_against_program(&p, &[(BranchId(0), 4, 2), (BranchId(7), 1, 1)]);
        assert_eq!(
            issues,
            vec![ProfileIssue::UnknownBranch {
                branch: BranchId(7),
                known: 1,
            }]
        );
    }

    #[test]
    fn raw_profile_round_trip() {
        let text = "# comment\n\nbr0 10 4\n1 3 3   # trailing comment\n";
        let rows = parse_raw_profile(text).unwrap();
        assert_eq!(rows, vec![(BranchId(0), 10, 4), (BranchId(1), 3, 3)]);

        let err = parse_raw_profile("br0 10").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("missing taken count"));
        assert!(parse_raw_profile("brX 1 1").is_err());
        assert!(parse_raw_profile("br0 1 1 9").is_err());
    }
}
