//! # unbundled-bench
//!
//! The experiment suite reproducing the paper's evaluation. Every
//! experiment is a function `fn(smoke: bool) -> Report` (see
//! [`report`]): the paper's §3–§5 measurements in [`paper`], the §6
//! multi-TC gate in [`e8`], and the feature gates [`e11`]–[`e17`] and
//! [`obs`]. The `report` binary lists them in one table and runs them;
//! this file holds the workload builders they share.

#![warn(missing_docs)]

pub mod baseline;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e8;
pub mod elastic;
pub mod json;
pub mod obs;
pub mod paper;
pub mod report;
pub mod workload;

use std::sync::Arc;
use unbundled_core::{DcId, Key, TableId, TableSpec, TcId};
use unbundled_dc::DcConfig;
use unbundled_kernel::deployment::{Deployment, TransportKind};
use unbundled_kernel::single;
use unbundled_tc::{TableRoute, Tc, TcConfig};

/// The table used by the generic workloads.
pub const TABLE: TableId = TableId(1);

/// A 1×1 unbundled deployment with one plain table.
pub fn unbundled_single(kind: TransportKind, tc_cfg: TcConfig, dc_cfg: DcConfig) -> Deployment {
    single(tc_cfg, dc_cfg, kind, &[TableSpec::plain(TABLE, "t")])
}

/// Insert `n` sequential keys (one transaction each) through a TC.
pub fn load_tc(tc: &Arc<Tc>, base: u64, n: u64, payload: usize) {
    for k in base..base + n {
        let t = tc.begin().expect("begin");
        tc.insert(t, TABLE, Key::from_u64(k), vec![7u8; payload])
            .expect("insert");
        tc.commit(t).expect("commit");
    }
}

/// Multi-TC deployment: `n_tcs` TCs over one DC, key space partitioned
/// per TC (paper Section 6.1: disjoint logical partitions).
pub fn multi_tc_deployment(n_tcs: u16, dc_cfg: DcConfig) -> Deployment {
    let mut d = Deployment::new();
    d.add_dc(DcId(1), dc_cfg);
    for i in 1..=n_tcs {
        let tc = TcId(i);
        d.add_tc(tc, TcConfig::default());
        d.connect(tc, DcId(1), TransportKind::Inline);
        d.route(tc, TABLE, TableRoute::Single(DcId(1)));
    }
    d.create_table(DcId(1), TableSpec::plain(TABLE, "t"));
    d
}

/// Key base for TC `i` in the multi-TC workload (disjoint partitions).
pub fn tc_partition_base(i: u16) -> u64 {
    (i as u64) << 32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loaders_work() {
        let d = unbundled_single(
            TransportKind::Inline,
            TcConfig::default(),
            DcConfig::default(),
        );
        let tc = d.tc(TcId(1));
        load_tc(&tc, 0, 20, 16);
        assert_eq!(d.dc(DcId(1)).engine().dump_table(TABLE).unwrap().len(), 20);
    }

    #[test]
    fn multi_tc_partitions_disjoint() {
        assert_ne!(tc_partition_base(1), tc_partition_base(2));
        let d = multi_tc_deployment(2, DcConfig::default());
        let tc1 = d.tc(TcId(1));
        let tc2 = d.tc(TcId(2));
        load_tc(&tc1, tc_partition_base(1), 5, 8);
        load_tc(&tc2, tc_partition_base(2), 5, 8);
        assert_eq!(d.dc(DcId(1)).engine().dump_table(TABLE).unwrap().len(), 10);
    }
}
