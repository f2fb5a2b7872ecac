//! Calls every library item, so only the planted `dead-pub` site fires.

#[test]
fn fixture_items_are_exercised() {
    let _ = (demo::check(1.0), demo::nearby(1.0, 2.0), demo::quiet(2.0));
    let _ = (demo::boom(Some(3)), demo::ok());
    let _ = demo::interference_vector_with(1);
    let _ = demo::budget(1.0, -90.0);
}
