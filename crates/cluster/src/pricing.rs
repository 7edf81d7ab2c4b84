//! Pay-as-you-go cost accounting.
//!
//! The paper's introduction motivates the cloud precisely by economics:
//! "the pay-as-you-go model of cloud computing … makes it well suited for
//! genomic analysis", and its experiments were funded by AWS research
//! credits (the permutation runs were cut short by "funding limitations").
//! This module prices a virtual-time run the way EMR would have billed it,
//! so the harnesses can report the dollar trade-off between the methods —
//! e.g. what those permutation runs would actually have cost.

use crate::instance::InstanceType;
use crate::topology::ClusterSpec;

/// On-demand hourly price (USD) for an instance type, 2016 us-east-1
/// rates contemporaneous with the paper.
fn on_demand_hourly_usd(instance: &InstanceType) -> f64 {
    match instance.name {
        "m3.2xlarge" => 0.532,
        // Anything else is priced by compute capacity relative to
        // m3.2xlarge (8 vCPU, 30 GiB).
        _ => 0.532 * (instance.vcpus as f64 / 8.0).max(instance.memory_mib as f64 / 30720.0),
    }
}

/// EMR adds a per-instance service surcharge on top of EC2.
const EMR_SURCHARGE_FRACTION: f64 = 0.25;

/// Billing granularity: EC2 billed whole instance-hours in 2016.
const BILLING_GRANULARITY_SECS: f64 = 3600.0;

/// Cost estimate for one cluster over one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Instance-hours billed (rounded up to the hour, per 2016 billing).
    pub instance_hours: f64,
    /// EC2 on-demand cost in USD.
    pub ec2_usd: f64,
    /// EMR surcharge in USD.
    pub emr_usd: f64,
}

impl CostEstimate {
    pub fn total_usd(&self) -> f64 {
        self.ec2_usd + self.emr_usd
    }
}

/// Price `runtime_secs` of wall-clock on `spec`'s cluster.
pub fn estimate_cost(spec: &ClusterSpec, runtime_secs: f64) -> CostEstimate {
    assert!(runtime_secs >= 0.0, "negative runtime");
    let hours_per_node = (runtime_secs / BILLING_GRANULARITY_SECS).ceil().max(1.0);
    let instance_hours = hours_per_node * f64::from(spec.nodes);
    let hourly = on_demand_hourly_usd(&spec.instance);
    let ec2_usd = instance_hours * hourly;
    CostEstimate {
        instance_hours,
        ec2_usd,
        emr_usd: ec2_usd * EMR_SURCHARGE_FRACTION,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_instance_priced_at_2016_rate() {
        assert_eq!(on_demand_hourly_usd(&crate::instance::M3_2XLARGE), 0.532);
    }

    #[test]
    fn sub_hour_runs_bill_a_full_hour() {
        let spec = ClusterSpec::m3_2xlarge(6);
        let cost = estimate_cost(&spec, 600.0); // 10 minutes
        assert_eq!(cost.instance_hours, 6.0);
        assert!((cost.ec2_usd - 6.0 * 0.532).abs() < 1e-12);
        assert!((cost.total_usd() - 6.0 * 0.532 * 1.25).abs() < 1e-12);
    }

    #[test]
    fn multi_hour_runs_round_up_per_node() {
        let spec = ClusterSpec::m3_2xlarge(18);
        let cost = estimate_cost(&spec, 2.5 * 3600.0);
        assert_eq!(cost.instance_hours, 3.0 * 18.0);
    }

    #[test]
    fn cost_scales_with_nodes() {
        let small = estimate_cost(&ClusterSpec::m3_2xlarge(6), 3600.0);
        let large = estimate_cost(&ClusterSpec::m3_2xlarge(36), 3600.0);
        assert!((large.total_usd() / small.total_usd() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_instances_priced_by_capacity() {
        let price = on_demand_hourly_usd(&crate::instance::TEST_SMALL);
        assert!(price > 0.0 && price < 0.532);
    }
}
