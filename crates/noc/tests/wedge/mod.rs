//! A wedge built on purpose: a checkpoint image whose router credit counts
//! were edited to zero. Restored, no router may send a flit to another
//! again, and `Network::check_index` names the first VC the edit starved.

use serde_json::Value;

/// The entry `key` of an object in a checkpoint image.
pub fn entry<'a>(image: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Map(entries) = image else {
        panic!("`{key}`: not an object");
    };
    let found = entries.iter_mut().find(|(k, _)| k == key);
    &mut found.unwrap_or_else(|| panic!("no `{key}`")).1
}

/// Edits the credit count of every router output VC in the image of a
/// network (`Network::snapshot`, or a chip image's `net`) to zero.
pub fn starve_routers(net: &mut Value) {
    let credits = entry(entry(net, "state"), "credits");
    let ni_base = entry(credits, "ni_base").as_u64().expect("a count") as usize;
    let Value::Seq(wires) = entry(credits, "wires") else {
        panic!("the credit wires are a list");
    };
    for wire in &mut wires[..ni_base] {
        *entry(wire, "count") = Value::U64(0);
    }
}
