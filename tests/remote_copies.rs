//! Copies on the wire path, in bytes: this binary counts allocations
//! (`CountingAlloc`), and a payload cannot be copied without somewhere
//! to land. A PUT's object bytes travel from the caller's slice, a GET's
//! arrive in the `Vec` the caller keeps and nowhere else first, a
//! decoded PUT borrows from the frame it was read into, and a length
//! prefix is a claim the frame reader does not reserve memory on.

use scrutiny_ckpt::names::{self, Tenant};
use scrutiny_engine::{MemBackend, StorageBackend};
use scrutiny_faultinj::{allocated_during, CountingAlloc};
use scrutinyd::proto::{read_frame, Request};
use scrutinyd::{Daemon, DaemonConfig, RemoteBackend, MAX_FRAME};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const OBJECT: usize = 4 << 20;
/// Headers, names, the connection pool's bookkeeping.
const SLACK: usize = 64 << 10;

#[test]
fn a_4_mib_put_and_get_allocate_no_second_payload_on_the_calling_thread() {
    let pool = Arc::new(MemBackend::new());
    let daemon = Daemon::spawn_tcp("127.0.0.1:0", pool, DaemonConfig::default()).unwrap();
    let remote =
        RemoteBackend::connect(daemon.endpoint(), Some(Tenant::new("copies").unwrap())).unwrap();
    let object: Vec<u8> = (0..OBJECT).map(|i| ((i * 31) >> 3) as u8).collect();
    let name = names::data(0);

    let (put, allocated) = allocated_during(|| remote.put(&name, &object)).unwrap();
    put.unwrap();
    assert!(
        allocated <= SLACK,
        "a {OBJECT}-byte PUT allocated {allocated} bytes: the payload was copied"
    );

    let (got, allocated) = allocated_during(|| remote.get(&name)).unwrap();
    let got = got.unwrap();
    assert!(
        allocated <= OBJECT + SLACK,
        "a {OBJECT}-byte GET allocated {allocated} bytes: more than the Vec it returns"
    );
    assert!(got == object, "and the bytes are the object's");
    drop(remote);
    daemon.join().unwrap();
}

#[test]
fn the_largest_legal_length_prefix_reserves_at_most_1_mib() {
    let wire = MAX_FRAME.to_le_bytes();
    let (read, allocated) = allocated_during(|| read_frame(&mut wire.as_slice())).unwrap();
    assert_eq!(
        read.unwrap_err().kind(),
        std::io::ErrorKind::UnexpectedEof,
        "a torn frame, typed"
    );
    assert!(
        allocated <= 1 << 20,
        "four bytes claiming {MAX_FRAME:#x} cost {allocated} bytes before any payload arrived"
    );
}

#[test]
fn a_decoded_put_borrows_its_payload_from_the_frame() {
    let object = vec![0xC5u8; 4096];
    let mut wire = Vec::new();
    let put = Request::Put {
        name: "ckpt_000007.data",
        bytes: &object,
    };
    put.write_to(&mut wire).unwrap();
    let frame = read_frame(&mut wire.as_slice()).unwrap();
    let (decoded, allocated) = allocated_during(|| Request::decode(&frame)).unwrap();
    let Request::Put { name, bytes } = decoded.unwrap() else {
        panic!("a PUT decodes as a PUT")
    };
    assert_eq!((name, bytes), ("ckpt_000007.data", object.as_slice()));
    assert!(
        frame.as_ptr_range().contains(&bytes.as_ptr()) && allocated == 0,
        "the payload is a slice of the frame buffer ({allocated} bytes allocated)"
    );
}
