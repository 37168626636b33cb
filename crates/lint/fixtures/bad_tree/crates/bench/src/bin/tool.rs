//! Fixture: a panicking binary. All seven sites below must be flagged by
//! `no-panic-bins`.

fn main() {
    let v: Option<u32> = None;
    v.unwrap();
    let _ = v.expect("boom");
    panic!("bad");
    assert!(v.is_some());
    assert_eq!(v, Some(1));
    assert_ne!(v, None);
    unreachable!("bad");
}
