//! The seed argument alone decides the inputs.

use perfbench::graphs::{family_of, stream, Family};

#[test]
fn same_seed_same_graphs_other_seed_other_graphs() {
    for n in [16, 128] {
        let a = stream(n, 7, 8);
        assert_eq!(
            a,
            stream(n, 7, 8),
            "n={n}: same seed must give identical graphs"
        );
        let b = stream(n, 8, 8);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_ne!(
                x,
                y,
                "n={n}: graph {i} ({:?}) ignores the seed",
                family_of(i)
            );
        }
    }
}

#[test]
fn streams_cycle_through_the_four_families() {
    let n = 64;
    let graphs = stream(n, 3, 8);
    for (i, g) in graphs.iter().enumerate() {
        assert_eq!(g.n(), n);
        let max_degree = (0..n).map(|v| g.degree(v)).max().unwrap();
        match family_of(i) {
            Family::Path => {
                assert_eq!(g.edge_count(), n - 1);
                assert_eq!(max_degree, 2);
            }
            Family::Star => {
                assert_eq!(g.edge_count(), n - 1);
                assert_eq!(max_degree, n - 1);
            }
            Family::Dense => assert!(g.edge_count() > n * n / 10),
            Family::Sparse => assert!(g.edge_count() < 4 * n),
        }
    }
}
