//! The replica container catalogue of the paper's testbed.
//!
//! Table 4 lists the ten container configurations (operating system and
//! vulnerabilities), Table 5 their background services and Table 6 the
//! attacker's intrusion steps against each. When a replica is recovered or a
//! node is added, the emulation picks a configuration uniformly at random
//! from this catalogue, exactly as the testbed does (Section VIII-A) — this
//! is the software-diversification mechanism that keeps compromise events
//! statistically independent across nodes.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A single intrusion step of a playbook (Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntrusionStep {
    /// TCP SYN reconnaissance scan.
    TcpSynScan,
    /// ICMP ping sweep.
    IcmpScan,
    /// Credential brute force against a login service.
    BruteForce,
    /// Exploitation of a concrete CVE / CWE.
    Exploit,
}

impl IntrusionStep {
    /// Relative amount of extra IDS noise the step generates (scans are loud,
    /// exploits are comparatively quiet).
    pub(crate) fn alert_intensity(self) -> f64 {
        match self {
            IntrusionStep::TcpSynScan => 1.0,
            IntrusionStep::IcmpScan => 0.6,
            IntrusionStep::BruteForce => 1.5,
            IntrusionStep::Exploit => 0.8,
        }
    }
}

/// One replica container configuration (a row of Table 4).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ContainerConfig {
    /// Replica identifier in Table 4 (1–10).
    pub id: u8,
    /// Operating system of the container image.
    pub operating_system: &'static str,
    /// The vulnerabilities the attacker exploits.
    pub vulnerabilities: &'static [&'static str],
    /// Background services running alongside the replica (Table 5).
    pub background_services: &'static [&'static str],
    /// The attacker's intrusion playbook against this container (Table 6).
    pub intrusion_steps: &'static [IntrusionStep],
    /// Relative detectability: how strongly an intrusion separates the alert
    /// distribution from the healthy one (brute-force attacks are much
    /// louder than single CVE exploits, cf. Fig. 11).
    pub detectability: f64,
}

/// The full catalogue of Table 4.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ContainerCatalog {
    containers: Vec<ContainerConfig>,
}

impl Default for ContainerCatalog {
    fn default() -> Self {
        ContainerCatalog::paper_catalog()
    }
}

impl ContainerCatalog {
    /// The ten container configurations of Table 4 with their services
    /// (Table 5) and intrusion playbooks (Table 6).
    pub fn paper_catalog() -> Self {
        use IntrusionStep::*;
        let containers = vec![
            ContainerConfig {
                id: 1,
                operating_system: "ubuntu-14",
                vulnerabilities: &["ftp-weak-password"],
                background_services: &["ftp", "ssh", "mongodb", "http", "teamspeak"],
                intrusion_steps: &[TcpSynScan, BruteForce],
                detectability: 1.6,
            },
            ContainerConfig {
                id: 2,
                operating_system: "ubuntu-20",
                vulnerabilities: &["ssh-weak-password"],
                background_services: &["ssh", "dns", "http"],
                intrusion_steps: &[TcpSynScan, BruteForce],
                detectability: 1.6,
            },
            ContainerConfig {
                id: 3,
                operating_system: "ubuntu-20",
                vulnerabilities: &["telnet-weak-password"],
                background_services: &["ssh", "telnet", "http"],
                intrusion_steps: &[TcpSynScan, BruteForce],
                detectability: 1.6,
            },
            ContainerConfig {
                id: 4,
                operating_system: "debian-10.2",
                vulnerabilities: &["cve-2017-7494"],
                background_services: &["ssh", "samba", "ntp"],
                intrusion_steps: &[IcmpScan, Exploit],
                detectability: 1.0,
            },
            ContainerConfig {
                id: 5,
                operating_system: "ubuntu-20",
                vulnerabilities: &["cve-2014-6271"],
                background_services: &["ssh"],
                intrusion_steps: &[IcmpScan, Exploit],
                detectability: 1.0,
            },
            ContainerConfig {
                id: 6,
                operating_system: "debian-10.2",
                vulnerabilities: &["cwe-89-dvwa"],
                background_services: &["dvwa", "irc", "ssh"],
                intrusion_steps: &[IcmpScan, Exploit],
                detectability: 0.9,
            },
            ContainerConfig {
                id: 7,
                operating_system: "debian-10.2",
                vulnerabilities: &["cve-2015-3306"],
                background_services: &["ssh"],
                intrusion_steps: &[IcmpScan, Exploit],
                detectability: 1.0,
            },
            ContainerConfig {
                id: 8,
                operating_system: "debian-10.2",
                vulnerabilities: &["cve-2016-10033"],
                background_services: &["ssh"],
                intrusion_steps: &[IcmpScan, Exploit],
                detectability: 0.9,
            },
            ContainerConfig {
                id: 9,
                operating_system: "debian-10.2",
                vulnerabilities: &["cve-2010-0426", "ssh-weak-password"],
                background_services: &["teamspeak", "http", "ssh"],
                intrusion_steps: &[IcmpScan, BruteForce, Exploit],
                detectability: 1.3,
            },
            ContainerConfig {
                id: 10,
                operating_system: "debian-10.2",
                vulnerabilities: &["cve-2015-5602", "ssh-weak-password"],
                background_services: &["ssh"],
                intrusion_steps: &[IcmpScan, BruteForce, Exploit],
                detectability: 1.3,
            },
        ];
        ContainerCatalog { containers }
    }

    /// All configurations.
    pub fn containers(&self) -> &[ContainerConfig] {
        &self.containers
    }

    /// Number of configurations (10 in the paper).
    pub fn len(&self) -> usize {
        self.containers.len()
    }

    /// Whether the catalogue is empty.
    pub fn is_empty(&self) -> bool {
        self.containers.is_empty()
    }

    /// The configuration with the given Table 4 identifier.
    pub fn by_id(&self, id: u8) -> Option<&ContainerConfig> {
        self.containers.iter().find(|c| c.id == id)
    }

    /// Picks a configuration uniformly at random (used when a replica is
    /// recovered or a node is added — software diversification).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &ContainerConfig {
        &self.containers[self.sample_position(rng)]
    }

    /// The draw behind [`Self::sample`], as a position in
    /// [`Self::containers`] (for per-container tables kept beside it).
    pub(crate) fn sample_position<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        rng.random_range(0..self.containers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn catalogue_matches_table4_structure() {
        let catalogue = ContainerCatalog::paper_catalog();
        assert_eq!(catalogue.len(), 10);
        assert!(!catalogue.is_empty());
        // Every container has at least one vulnerability, one background
        // service and a playbook that starts with reconnaissance.
        for c in catalogue.containers() {
            assert!(
                !c.vulnerabilities.is_empty(),
                "container {} has no vulnerabilities",
                c.id
            );
            assert!(!c.background_services.is_empty());
            assert!(!c.intrusion_steps.is_empty());
            assert!(matches!(
                c.intrusion_steps[0],
                IntrusionStep::TcpSynScan | IntrusionStep::IcmpScan
            ));
            assert!(c.detectability > 0.0);
        }
        // Specific rows from Table 4.
        assert_eq!(
            catalogue.by_id(4).unwrap().vulnerabilities,
            &["cve-2017-7494"]
        );
        assert_eq!(catalogue.by_id(9).unwrap().intrusion_steps.len(), 3);
        assert!(catalogue.by_id(42).is_none());
    }

    #[test]
    fn brute_force_targets_are_more_detectable_than_cve_exploits() {
        let catalogue = ContainerCatalog::paper_catalog();
        let brute = catalogue.by_id(1).unwrap().detectability;
        let exploit = catalogue.by_id(6).unwrap().detectability;
        assert!(brute > exploit);
    }

    #[test]
    fn sampling_covers_the_catalogue() {
        let catalogue = ContainerCatalog::paper_catalog();
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(catalogue.sample(&mut rng).id);
        }
        assert_eq!(
            seen.len(),
            10,
            "all ten containers should be drawn eventually"
        );
    }

    #[test]
    fn step_intensities_are_positive_and_ordered() {
        assert!(
            IntrusionStep::BruteForce.alert_intensity() > IntrusionStep::Exploit.alert_intensity()
        );
        assert!(
            IntrusionStep::TcpSynScan.alert_intensity() > IntrusionStep::IcmpScan.alert_intensity()
        );
    }

    #[test]
    fn default_is_the_paper_catalogue() {
        assert_eq!(
            ContainerCatalog::default(),
            ContainerCatalog::paper_catalog()
        );
    }
}
