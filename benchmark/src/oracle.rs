//! Reference answers that share no code with the library.
//!
//! Everything here works on plain CSR arrays (`rowptr`, `colidx`) and is
//! serial and as plain as the problem allows. The oracles run outside
//! every timed region; a mismatch counts as a failed operation.

use std::collections::VecDeque;

/// A borrowed adjacency structure: row `i`'s neighbours are
/// `colidx[rowptr[i]..rowptr[i + 1]]`, ascending.
#[derive(Debug, Clone, Copy)]
pub struct Adj<'a> {
    pub rowptr: &'a [usize],
    pub colidx: &'a [usize],
}

impl<'a> Adj<'a> {
    pub fn n(&self) -> usize {
        self.rowptr.len() - 1
    }

    pub fn row(&self, i: usize) -> &'a [usize] {
        &self.colidx[self.rowptr[i]..self.rowptr[i + 1]]
    }

    pub fn degree(&self, i: usize) -> usize {
        self.rowptr[i + 1] - self.rowptr[i]
    }
}

/// BFS levels by plain queue traversal (`-1` = unreached).
pub fn bfs_levels(adj: Adj<'_>, source: usize) -> Vec<i64> {
    let mut levels = vec![-1i64; adj.n()];
    levels[source] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        for &v in adj.row(u) {
            if levels[v] < 0 {
                levels[v] = levels[u] + 1;
                queue.push_back(v);
            }
        }
    }
    levels
}

/// Edges a BFS traverses: the out-degrees of the reached vertices summed
/// (the Graph500 count).
pub fn edges_traversed(adj: Adj<'_>, levels: &[i64]) -> u64 {
    levels.iter().enumerate().filter(|(_, &l)| l >= 0).map(|(v, _)| adj.degree(v) as u64).sum()
}

/// Serial dense power iteration for PageRank on the edge `i -> j` stored
/// at row `i`: uniform out-weights, dangling mass spread uniformly, stop
/// when the L1 change drops below `tolerance`.
pub fn pagerank(adj: Adj<'_>, damping: f64, tolerance: f64, max_iterations: usize) -> Vec<f64> {
    let n = adj.n();
    let nf = n as f64;
    let mut rank = vec![1.0 / nf; n];
    for _ in 0..max_iterations {
        let mut spread = vec![0.0f64; n];
        let mut dangling = 0.0;
        for (i, &mass) in rank.iter().enumerate() {
            let row = adj.row(i);
            if row.is_empty() {
                dangling += mass;
            } else {
                let share = mass / row.len() as f64;
                for &j in row {
                    spread[j] += share;
                }
            }
        }
        let mut diff = 0.0;
        for v in 0..n {
            let r = (1.0 - damping) / nf + damping * (spread[v] + dangling / nf);
            diff += (r - rank[v]).abs();
            spread[v] = r;
        }
        rank = spread;
        if diff < tolerance {
            break;
        }
    }
    rank
}

/// Triangles of a symmetric graph by intersecting sorted lower-neighbour
/// lists: each triangle `i > j > k` is found once, at its edge `(i, j)`.
pub fn triangle_count(adj: Adj<'_>) -> u64 {
    let lower = |i: usize| {
        let row = adj.row(i);
        &row[..row.partition_point(|&j| j < i)]
    };
    let mut count = 0u64;
    for i in 0..adj.n() {
        let li = lower(i);
        for &j in li {
            let lj = lower(j);
            let (mut p, mut q) = (0, 0);
            while p < li.len() && q < lj.len() {
                match li[p].cmp(&lj[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        count += 1;
                        p += 1;
                        q += 1;
                    }
                }
            }
        }
    }
    count
}

/// Connected-component representative of every vertex (union-find).
fn components(adj: Adj<'_>) -> Vec<usize> {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut parent: Vec<usize> = (0..adj.n()).collect();
    for i in 0..adj.n() {
        for &j in adj.row(i) {
            let (a, b) = (find(&mut parent, i), find(&mut parent, j));
            if a != b {
                parent[a.max(b)] = a.min(b);
            }
        }
    }
    (0..adj.n()).map(|v| find(&mut parent, v)).collect()
}

/// Whether `labels` is a valid clustering of the symmetric graph `adj`:
/// one in-range label per vertex, and no cluster spans two connected
/// components (flow cannot cross a cut with no edges).
pub fn is_valid_clustering(adj: Adj<'_>, labels: &[usize]) -> bool {
    let n = adj.n();
    if labels.len() != n || labels.iter().any(|&l| l >= n) {
        return false;
    }
    let comp = components(adj);
    (0..n).all(|v| comp[v] == comp[labels[v]])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Undirected graph from an edge list, as owned CSR arrays.
    fn undirected(n: usize, edges: &[(usize, usize)]) -> (Vec<usize>, Vec<usize>) {
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            rows[a].push(b);
            rows[b].push(a);
        }
        let mut rowptr = vec![0];
        let mut colidx = Vec::new();
        for row in &mut rows {
            row.sort_unstable();
            colidx.extend_from_slice(row);
            rowptr.push(colidx.len());
        }
        (rowptr, colidx)
    }

    #[test]
    fn bfs_on_a_path_and_an_island() {
        let (rowptr, colidx) = undirected(5, &[(0, 1), (1, 2), (2, 3)]);
        let adj = Adj { rowptr: &rowptr, colidx: &colidx };
        let levels = bfs_levels(adj, 0);
        assert_eq!(levels, vec![0, 1, 2, 3, -1]);
        assert_eq!(edges_traversed(adj, &levels), 6);
    }

    #[test]
    fn k4_has_four_triangles_and_a_cycle_none() {
        let (rowptr, colidx) = undirected(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(triangle_count(Adj { rowptr: &rowptr, colidx: &colidx }), 4);
        let (rowptr, colidx) = undirected(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        assert_eq!(triangle_count(Adj { rowptr: &rowptr, colidx: &colidx }), 0);
    }

    #[test]
    fn pagerank_sums_to_one_and_is_uniform_on_a_cycle() {
        let rowptr: Vec<usize> = (0..=8).collect();
        let colidx: Vec<usize> = (0..8).map(|i| (i + 1) % 8).collect();
        let rank = pagerank(Adj { rowptr: &rowptr, colidx: &colidx }, 0.85, 1e-9, 200);
        assert!((rank.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(rank.iter().all(|&r| (r - 0.125).abs() < 1e-9));
        // 0 -> 1 with vertex 1 dangling: mass is conserved
        let rank = pagerank(Adj { rowptr: &[0, 1, 1], colidx: &[1] }, 0.85, 1e-9, 200);
        assert!((rank.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(rank[1] > rank[0]);
    }

    #[test]
    fn clustering_must_stay_inside_components() {
        let (rowptr, colidx) = undirected(4, &[(0, 1), (2, 3)]);
        let adj = Adj { rowptr: &rowptr, colidx: &colidx };
        assert!(is_valid_clustering(adj, &[0, 0, 3, 3]));
        assert!(is_valid_clustering(adj, &[0, 1, 2, 3]));
        assert!(!is_valid_clustering(adj, &[0, 0, 0, 3]));
        assert!(!is_valid_clustering(adj, &[0, 0, 3]));
        assert!(!is_valid_clustering(adj, &[0, 0, 3, 9]));
    }
}
