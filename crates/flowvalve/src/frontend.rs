//! The `fv` front end: a `tc`-style command language for FlowValve
//! policies (paper §III-E).
//!
//! The front end runs on the host: it parses `fv` commands into a
//! [`Policy`], builds the scheduling tree, compiles filter rules into
//! QoS-label verdicts, and hands both to the NIC pipeline — the
//! "populate configuration parameters and filter rules into the SmartNIC
//! shared memory" arrow of Figure 5.
//!
//! # Command grammar
//!
//! ```text
//! fv qdisc add dev <dev> root handle 1: fv [default 1:<minor>]
//! fv class add dev <dev> parent root|1:<minor> classid 1:<minor>
//!          [name <str>] [rate <rate>] [ceil <rate>] [prio <n>] [weight <n>]
//! fv filter add dev <dev> [prio <n>] match <m...> flowid 1:<minor>
//!          [borrow 1:<a>,1:<b>,...]
//! ```
//!
//! Matchers: `ip dport <port>`, `ip sport <port>`, `ip src <cidr>`,
//! `ip dst <cidr>`, `ip proto tcp|udp`, `vf <n>`, or `any`.
//! Rates accept `bit`, `kbit`, `mbit`, `gbit` suffixes as `tc` does.
//! Each option and matcher field may appear once per command; a value is
//! never read as an option, so a class may be named `prio`.

use classifier::{Cidr, FilterRule, FlowMatch};
use netstack::flow::IpProto;
use netstack::packet::VfPort;
use sim_core::units::BitRate;

use crate::error::{BuildTreeError, ParseFvError};
use crate::label::{ClassId, QosLabel};
use crate::tree::{ClassSpec, SchedulingTree, TreeParams};

/// One parsed filter command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterSpec {
    /// Match order (lower first).
    pub priority: u16,
    /// The tuple match.
    pub matcher: FlowMatch,
    /// Destination leaf class.
    pub class: ClassId,
    /// Lender classes, in query order.
    pub borrow: Vec<ClassId>,
}

/// What [`Policy::compile`] produces: the scheduling tree, the compiled
/// filter rules (verdicts are ready-made labels), and the default label
/// for unmatched traffic.
pub type CompiledPolicy = (
    SchedulingTree,
    Vec<FilterRule<Option<QosLabel>>>,
    Option<QosLabel>,
);

/// A complete parsed policy: classes plus filters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Policy {
    /// Declared traffic classes.
    pub classes: Vec<ClassSpec>,
    /// Declared filters.
    pub filters: Vec<FilterSpec>,
    /// Class for unmatched traffic (`default` option of the qdisc command);
    /// `None` lets unmatched traffic bypass scheduling.
    pub default_class: Option<ClassId>,
}

impl Policy {
    /// Parses a multi-line `fv` script (`#` starts a comment).
    ///
    /// # Errors
    ///
    /// Returns the first [`ParseFvError`] encountered.
    ///
    /// # Example
    ///
    /// ```
    /// use flowvalve::frontend::Policy;
    ///
    /// let policy = Policy::parse(
    ///     "fv qdisc add dev nic0 root handle 1: fv default 1:30\n\
    ///      fv class add dev nic0 parent root classid 1:1 rate 10gbit\n\
    ///      fv class add dev nic0 parent 1:1 classid 1:10 prio 0 name nc\n\
    ///      fv class add dev nic0 parent 1:1 classid 1:30 prio 1 name bulk\n\
    ///      fv filter add dev nic0 match ip dport 6000 flowid 1:10\n",
    /// )?;
    /// assert_eq!(policy.classes.len(), 3);
    /// assert_eq!(policy.filters.len(), 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn parse(script: &str) -> Result<Policy, ParseFvError> {
        let mut policy = Policy::default();
        for line in script.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            policy.parse_command(line)?;
        }
        Ok(policy)
    }

    /// Parses and applies a single `fv` command.
    ///
    /// # Errors
    ///
    /// Returns [`ParseFvError`] describing the malformed token.
    pub fn parse_command(&mut self, line: &str) -> Result<(), ParseFvError> {
        let mut words = line.split_whitespace().peekable();
        // Accept and skip a leading `fv`.
        if words.peek() == Some(&"fv") {
            words.next();
        }
        let object = words.next().ok_or(ParseFvError::EmptyCommand)?;
        let verb = words.next().ok_or(ParseFvError::MissingOption("add"))?;
        if verb != "add" {
            return Err(ParseFvError::UnknownVerb(verb.to_owned()));
        }
        let rest: Vec<&str> = words.collect();
        match object {
            "qdisc" => self.parse_qdisc(&rest),
            "class" => self.parse_class(&rest),
            "filter" => self.parse_filter(&rest),
            other => Err(ParseFvError::UnknownObject(other.to_owned())),
        }
    }

    fn parse_qdisc(&mut self, words: &[&str]) -> Result<(), ParseFvError> {
        let mut seen = Seen::default();
        let mut it = words.iter();
        while let Some(&w) = it.next() {
            seen.once(w, &["dev", "handle", "default"])?;
            match w {
                "default" => {
                    let v = it.next().ok_or(ParseFvError::MissingOption("default"))?;
                    self.default_class = Some(parse_handle(v)?);
                }
                // `dev` and `handle` take a value, which is ignored like
                // `root` and the qdisc kind: the reproduction manages a
                // single device and qdisc.
                "dev" | "handle" => {
                    it.next();
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn parse_class(&mut self, words: &[&str]) -> Result<(), ParseFvError> {
        let mut parent: Option<&str> = None;
        let mut classid: Option<&str> = None;
        let mut spec_name: Option<String> = None;
        let mut rate = None;
        let mut ceil = None;
        let mut prio = 0u8;
        let mut weight = 1u32;

        let mut seen = Seen::default();
        let mut it = words.iter();
        while let Some(&w) = it.next() {
            seen.once(
                w,
                &[
                    "dev", "parent", "classid", "name", "rate", "ceil", "prio", "weight",
                ],
            )?;
            let mut value = |opt: &'static str| -> Result<&str, ParseFvError> {
                it.next().copied().ok_or(ParseFvError::MissingOption(opt))
            };
            match w {
                "dev" => {
                    value("dev")?;
                }
                "parent" => parent = Some(value("parent")?),
                "classid" => classid = Some(value("classid")?),
                "name" => spec_name = Some(value("name")?.to_owned()),
                "rate" => rate = Some(parse_rate(value("rate")?)?),
                "ceil" => ceil = Some(parse_rate(value("ceil")?)?),
                "prio" => {
                    let v = value("prio")?;
                    prio = v.parse().map_err(|_| ParseFvError::BadValue {
                        option: "prio",
                        value: v.to_owned(),
                    })?;
                }
                "weight" => {
                    let v = value("weight")?;
                    weight = v.parse().map_err(|_| ParseFvError::BadValue {
                        option: "weight",
                        value: v.to_owned(),
                    })?;
                }
                other => {
                    return Err(ParseFvError::BadValue {
                        option: "class",
                        value: other.to_owned(),
                    })
                }
            }
        }

        let classid = classid.ok_or(ParseFvError::MissingOption("classid"))?;
        let id = parse_handle(classid)?;
        let parent = match parent.ok_or(ParseFvError::MissingOption("parent"))? {
            "root" => None,
            p => Some(parse_handle(p)?),
        };
        let mut spec = ClassSpec::new(
            id,
            spec_name.unwrap_or_else(|| format!("class{}", id.0)),
            parent,
        )
        .prio(prio)
        .weight(weight);
        spec.rate = rate;
        spec.ceil = ceil;
        self.classes.push(spec);
        Ok(())
    }

    fn parse_filter(&mut self, words: &[&str]) -> Result<(), ParseFvError> {
        let mut priority = 10u16;
        let mut matcher = FlowMatch::any();
        let mut class: Option<ClassId> = None;
        let mut borrow = Vec::new();

        let mut seen = Seen::default();
        let mut it = words.iter().peekable();
        while let Some(&w) = it.next() {
            seen.once(w, &["dev", "prio", "match", "flowid", "borrow"])?;
            match w {
                "dev" => {
                    it.next().ok_or(ParseFvError::MissingOption("dev"))?;
                }
                "prio" => {
                    let v = it.next().ok_or(ParseFvError::MissingOption("prio"))?;
                    priority = v.parse().map_err(|_| ParseFvError::BadValue {
                        option: "prio",
                        value: (*v).to_owned(),
                    })?;
                }
                "match" => {
                    matcher = parse_match(&mut it, &mut seen)?;
                }
                "flowid" => {
                    let v = it.next().ok_or(ParseFvError::MissingOption("flowid"))?;
                    class = Some(parse_handle(v)?);
                }
                "borrow" => {
                    let v = it.next().ok_or(ParseFvError::MissingOption("borrow"))?;
                    for part in v.split(',') {
                        borrow.push(parse_handle(part)?);
                    }
                }
                other => {
                    return Err(ParseFvError::BadValue {
                        option: "filter",
                        value: other.to_owned(),
                    })
                }
            }
        }
        let class = class.ok_or(ParseFvError::MissingOption("flowid"))?;
        self.filters.push(FilterSpec {
            priority,
            matcher,
            class,
            borrow,
        });
        Ok(())
    }

    /// Builds the scheduling tree and the compiled filter rules (verdicts
    /// are ready-made [`QosLabel`]s).
    ///
    /// # Errors
    ///
    /// Returns [`ParseFvError::UnknownClass`] when a filter's `flowid` or
    /// the `default` names an undeclared class, [`ParseFvError::Build`]
    /// when the class hierarchy is invalid or a `borrow` names an unknown
    /// class.
    pub fn compile(&self, params: TreeParams) -> Result<CompiledPolicy, ParseFvError> {
        let tree = SchedulingTree::build(self.classes.clone(), params)?;
        let label = |option, leaf, borrow: &[ClassId]| {
            tree.label(leaf, borrow).map_err(|e| match e {
                BuildTreeError::UnknownLeafClass(class) => {
                    ParseFvError::UnknownClass { option, class }
                }
                e => e.into(),
            })
        };
        let mut rules = Vec::with_capacity(self.filters.len());
        for f in &self.filters {
            let label = label("flowid", f.class, &f.borrow)?;
            rules.push(FilterRule::new(f.priority, f.matcher, Some(label)));
        }
        let default = match self.default_class {
            Some(c) => Some(label("default", c, &[])?),
            None => None,
        };
        Ok((tree, rules, default))
    }
}

/// The options one command has given so far, so that a repeated one is
/// refused instead of silently replacing the first.
#[derive(Default)]
struct Seen(Vec<&'static str>);

impl Seen {
    /// Notes `word` if it is one of `options`; `Err` if it was noted before.
    fn once(&mut self, word: &str, options: &[&'static str]) -> Result<(), ParseFvError> {
        let Some(&option) = options.iter().find(|&&o| o == word) else {
            return Ok(());
        };
        if self.0.contains(&option) {
            return Err(ParseFvError::RepeatedOption(option));
        }
        self.0.push(option);
        Ok(())
    }
}

/// Parses a `major:minor` (or bare `minor`) class handle.
fn parse_handle(s: &str) -> Result<ClassId, ParseFvError> {
    let bad = || ParseFvError::BadHandle(s.to_owned());
    let minor = match s.split_once(':') {
        Some((_major, minor)) => minor,
        None => s,
    };
    if minor.is_empty() {
        return Err(bad());
    }
    minor.parse::<u16>().map(ClassId).map_err(|_| bad())
}

/// Parses a `tc`-style rate: `<number><bit|kbit|mbit|gbit>`.
fn parse_rate(s: &str) -> Result<BitRate, ParseFvError> {
    let bad = || ParseFvError::BadRate(s.to_owned());
    let lower = s.to_ascii_lowercase();
    let (digits, mult) = if let Some(d) = lower.strip_suffix("gbit") {
        (d, 1_000_000_000u64)
    } else if let Some(d) = lower.strip_suffix("mbit") {
        (d, 1_000_000)
    } else if let Some(d) = lower.strip_suffix("kbit") {
        (d, 1_000)
    } else if let Some(d) = lower.strip_suffix("bit") {
        (d, 1)
    } else {
        return Err(bad());
    };
    let value: f64 = digits.parse().map_err(|_| bad())?;
    if !value.is_finite() || value < 0.0 {
        return Err(bad());
    }
    Ok(BitRate::from_bps((value * mult as f64).round() as u64))
}

/// Parses the matcher words following `match`; `seen` refuses a field
/// given twice.
fn parse_match<'a, I>(
    it: &mut std::iter::Peekable<I>,
    seen: &mut Seen,
) -> Result<FlowMatch, ParseFvError>
where
    I: Iterator<Item = &'a &'a str>,
{
    let mut m = FlowMatch::any();
    loop {
        match it.peek().copied() {
            Some(&"any") => {
                it.next();
            }
            Some(&"ip") => {
                it.next();
                let field = *it.next().ok_or(ParseFvError::MissingOption("match ip"))?;
                seen.once(field, &["dport", "sport", "src", "dst", "proto"])?;
                let value = *it
                    .next()
                    .ok_or(ParseFvError::MissingOption("match ip value"))?;
                match field {
                    "dport" => {
                        m.dst_port = Some(value.parse().map_err(|_| ParseFvError::BadValue {
                            option: "dport",
                            value: value.to_owned(),
                        })?)
                    }
                    "sport" => {
                        m.src_port = Some(value.parse().map_err(|_| ParseFvError::BadValue {
                            option: "sport",
                            value: value.to_owned(),
                        })?)
                    }
                    "src" => m.src = Some(parse_cidr(value)?),
                    "dst" => m.dst = Some(parse_cidr(value)?),
                    "proto" => {
                        m.proto = Some(match value {
                            "tcp" => IpProto::Tcp,
                            "udp" => IpProto::Udp,
                            other => {
                                return Err(ParseFvError::BadValue {
                                    option: "proto",
                                    value: other.to_owned(),
                                })
                            }
                        })
                    }
                    other => {
                        return Err(ParseFvError::BadValue {
                            option: "match ip",
                            value: other.to_owned(),
                        })
                    }
                }
            }
            Some(&"vf") => {
                it.next();
                seen.once("vf", &["vf"])?;
                let value = *it.next().ok_or(ParseFvError::MissingOption("vf"))?;
                m.vf = Some(VfPort(value.parse().map_err(|_| {
                    ParseFvError::BadValue {
                        option: "vf",
                        value: value.to_owned(),
                    }
                })?));
            }
            // Anything else ends the matcher list (e.g. `flowid`).
            _ => break,
        }
    }
    Ok(m)
}

fn parse_cidr(s: &str) -> Result<Cidr, ParseFvError> {
    let bad = || ParseFvError::BadValue {
        option: "cidr",
        value: s.to_owned(),
    };
    let (addr, prefix) = match s.split_once('/') {
        Some((a, p)) => (a, p.parse::<u8>().map_err(|_| bad())?),
        None => (s, 32),
    };
    if prefix > 32 {
        return Err(bad());
    }
    let addr: std::net::Ipv4Addr = addr.parse().map_err(|_| bad())?;
    Ok(Cidr::new(addr, prefix))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MOTIVATION: &str = "\
# The paper's motivation example (Figure 2 / §III-E), 10 Gbps link.
fv qdisc add dev nic0 root handle 1: fv default 1:30
fv class add dev nic0 parent root classid 1:1 name s0 rate 10gbit
fv class add dev nic0 parent 1:1 classid 1:10 name nc prio 0
fv class add dev nic0 parent 1:1 classid 1:2 name s1 prio 1
fv class add dev nic0 parent 1:2 classid 1:30 name ws weight 1
fv class add dev nic0 parent 1:2 classid 1:22 name s2 weight 2
fv class add dev nic0 parent 1:22 classid 1:40 name kvs prio 0
fv class add dev nic0 parent 1:22 classid 1:41 name ml prio 1 rate 2gbit
fv filter add dev nic0 prio 1 match vf 0 flowid 1:10
fv filter add dev nic0 prio 2 match vf 1 ip dport 5001 flowid 1:40 borrow 1:41
fv filter add dev nic0 prio 3 match vf 1 flowid 1:41 borrow 1:22,1:40
fv filter add dev nic0 prio 4 match vf 2 flowid 1:30 borrow 1:22
";

    #[test]
    fn parses_motivation_script() {
        let p = Policy::parse(MOTIVATION).unwrap();
        assert_eq!(p.classes.len(), 7);
        assert_eq!(p.filters.len(), 4);
        assert_eq!(p.default_class, Some(ClassId(30)));
        let ml = p.classes.iter().find(|c| c.name == "ml").unwrap();
        assert_eq!(ml.prio, 1);
        assert_eq!(ml.rate, Some(BitRate::from_gbps(2.0)));
        let f = &p.filters[2];
        assert_eq!(f.class, ClassId(41));
        assert_eq!(f.borrow, vec![ClassId(22), ClassId(40)]);
    }

    #[test]
    fn compiles_motivation_to_tree_and_rules() {
        let p = Policy::parse(MOTIVATION).unwrap();
        let (tree, rules, default) = p.compile(TreeParams::default()).unwrap();
        assert_eq!(tree.len(), 7);
        assert_eq!(rules.len(), 4);
        let d = default.expect("default class configured");
        assert_eq!(d.leaf(), ClassId(30));
        // The ML label walks S0 -> S1 -> S2 -> ML.
        let ml = rules[2].verdict.unwrap();
        assert_eq!(
            ml.path(),
            &[ClassId(1), ClassId(2), ClassId(22), ClassId(41)]
        );
    }

    #[test]
    fn rate_suffixes() {
        assert_eq!(parse_rate("10gbit").unwrap(), BitRate::from_gbps(10.0));
        assert_eq!(parse_rate("500mbit").unwrap(), BitRate::from_mbps(500));
        assert_eq!(parse_rate("250kbit").unwrap(), BitRate::from_bps(250_000));
        assert_eq!(parse_rate("64bit").unwrap(), BitRate::from_bps(64));
        assert_eq!(parse_rate("1.5gbit").unwrap(), BitRate::from_mbps(1_500));
        assert!(parse_rate("10zbit").is_err());
        assert!(parse_rate("fast").is_err());
    }

    #[test]
    fn handle_forms() {
        assert_eq!(parse_handle("1:30").unwrap(), ClassId(30));
        assert_eq!(parse_handle("30").unwrap(), ClassId(30));
        assert!(parse_handle("1:").is_err());
        assert!(parse_handle("x:y").is_err());
    }

    #[test]
    fn unknown_object_and_verb_rejected() {
        let mut p = Policy::default();
        assert!(matches!(
            p.parse_command("fv frobnicate add dev nic0"),
            Err(ParseFvError::UnknownObject(_))
        ));
        assert!(matches!(
            p.parse_command("fv class del dev nic0"),
            Err(ParseFvError::UnknownVerb(_))
        ));
        assert!(matches!(
            p.parse_command("fv"),
            Err(ParseFvError::EmptyCommand)
        ));
    }

    #[test]
    fn missing_classid_rejected() {
        let mut p = Policy::default();
        let err = p
            .parse_command("fv class add dev nic0 parent root rate 1gbit")
            .unwrap_err();
        assert_eq!(err, ParseFvError::MissingOption("classid"));
    }

    #[test]
    fn filter_requires_flowid() {
        let mut p = Policy::default();
        let err = p
            .parse_command("fv filter add dev nic0 match any")
            .unwrap_err();
        assert_eq!(err, ParseFvError::MissingOption("flowid"));
    }

    #[test]
    fn cidr_matchers_parse() {
        let p = Policy::parse(
            "fv class add dev nic0 parent root classid 1:1 rate 1gbit\n\
             fv filter add dev nic0 match ip src 10.0.0.0/8 ip proto tcp flowid 1:1\n",
        )
        .unwrap();
        let m = p.filters[0].matcher;
        assert_eq!(m.src.unwrap().prefix, 8);
        assert_eq!(m.proto.unwrap(), IpProto::Tcp);
    }

    #[test]
    fn compile_rejects_unknown_filter_class() {
        let compile = |script: &str| {
            let p = Policy::parse(script).unwrap();
            p.compile(TreeParams::default())
                .err()
                .map(|e| e.to_string())
        };
        let root = "fv class add dev nic0 parent root classid 1:1 rate 1gbit\n";
        let flowid = format!("{root}fv filter add dev nic0 match any flowid 1:99\n");
        assert_eq!(
            compile(&flowid).as_deref(),
            Some("flowid 1:99 names no declared class")
        );
        let default = format!("fv qdisc add dev nic0 root handle 1: fv default 1:99\n{root}");
        assert_eq!(
            compile(&default).as_deref(),
            Some("default 1:99 names no declared class")
        );
        // An unknown lender stays a borrow error.
        let lender = format!("{root}fv filter add dev nic0 match any flowid 1:1 borrow 1:99\n");
        assert_eq!(
            compile(&lender).as_deref(),
            Some("policy error: borrow label references unknown class 1:99")
        );
    }

    #[test]
    fn a_repeated_option_is_refused_by_name() {
        let cases = [
            (
                "qdisc add dev nic0 root handle 1: fv default 1:1 default 1:2",
                "default",
            ),
            (
                "class add dev nic0 parent root classid 1:1 rate 10gbit rate 1gbit",
                "rate",
            ),
            (
                "class add parent root classid 1:1 ceil 2gbit ceil 5gbit",
                "ceil",
            ),
            ("class add parent root classid 1:1 classid 1:2", "classid"),
            (
                "class add parent root classid 1:1 prio 1 weight 2 prio 0",
                "prio",
            ),
            (
                "filter add dev nic0 match any flowid 1:1 flowid 1:2",
                "flowid",
            ),
            ("filter add match vf 1 flowid 1:1 match vf 2", "match"),
            (
                "filter add match ip dport 80 ip dport 443 flowid 1:1",
                "dport",
            ),
            ("filter add match vf 1 vf 2 flowid 1:1", "vf"),
        ];
        for (command, option) in cases {
            let err = Policy::default().parse_command(command).unwrap_err();
            assert_eq!(err, ParseFvError::RepeatedOption(option), "{command}");
            assert_eq!(err.to_string(), format!("option '{option}' given twice"));
        }
    }

    #[test]
    fn a_value_that_spells_an_option_still_parses() {
        let p = Policy::parse(
            "fv qdisc add dev default root handle 1: fv default 1:1\n\
             fv class add dev rate parent root classid 1:1 name prio prio 1 rate 1gbit\n",
        )
        .unwrap();
        assert_eq!(p.default_class, Some(ClassId(1)));
        let class = &p.classes[0];
        assert_eq!((class.name.as_str(), class.prio), ("prio", 1));
        assert_eq!(class.rate, Some(BitRate::from_gbps(1.0)));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = Policy::parse("# nothing\n\n   # more nothing\n").unwrap();
        assert_eq!(p, Policy::default());
    }
}
