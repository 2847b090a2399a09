//! Hot-path fixture: panic and allocation rules.

pub fn lookup(v: &[u32], i: usize) -> u32 {
    let first = v.first().unwrap();
    if *first > 3 {
        panic!("bad head");
    }
    v[i]
}

pub fn checked(v: &[u32]) -> u32 {
    // taqos-lint: allow(panic-path) -- fixture invariant: caller checked
    let head = v.first().expect("non-empty");
    let tail = v[0]; // taqos-lint: allow(panic-index) -- fixture: bound held
    head + tail
}

// taqos-lint: hot
pub fn per_cycle(xs: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let copy = xs.to_vec();
    let mix = vec![1u32];
    out.extend(copy);
    out.extend(mix);
    out
}

pub fn cold_alloc() -> Vec<u32> {
    Vec::new()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        let v = vec![1u32];
        assert_eq!(*v.first().unwrap(), 1);
    }
}
