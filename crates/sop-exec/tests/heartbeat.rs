//! Reading a heartbeat stream: malformed lines are counted, not fatal.

use sop_exec::heartbeat::{read_events, read_events_counting};

#[test]
fn malformed_lines_are_counted_not_fatal() {
    let fixture = include_str!("../../../tests/fixtures/progress.ndjson");
    let dir = std::env::temp_dir().join(format!("sop-heartbeat-counted-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let clean = dir.join("clean.ndjson");
    std::fs::write(&clean, fixture).expect("write");
    let (events, malformed) = read_events_counting(&clean);
    assert_eq!((events.len(), malformed), (fixture.lines().count(), 0));
    // The fixture with its final line cut short, then a blank line.
    let cut = dir.join("cut.ndjson");
    let body = fixture.trim_end();
    std::fs::write(&cut, format!("{}\n\n", &body[..body.len() - 40])).expect("write");
    let (cut_events, malformed) = read_events_counting(&cut);
    assert_eq!(malformed, 1);
    assert_eq!(cut_events, events[..events.len() - 1]);
    assert_eq!(read_events(&cut), cut_events);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
