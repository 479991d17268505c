//! The **Bank** application (paper §6): "a private bank data with 11
//! relational tables with 1.5 billion tuples and 133 attributes … four
//! tasks: (a) CNC that cleans names of records in Bank; (b) CIC for
//! company information; (c) TPA that detects and corrects total payment
//! amounts, and (d) ESClean for cleaning all the errors above."
//!
//! Synthetic shape (laptop scale, same task structure):
//! * `Customer` — several records per customer entity (different source
//!   systems), `cid → (last_name, first_name)` FDs; typos and duplicates
//!   injected → task **CNC**.
//! * `Company` — `name → industry` and `city → area_code` FDs, nullable
//!   city imputed from the company KG or correlation → task **CIC**.
//! * `Payment` — `total = amount + fee` arithmetic invariant, corrupted
//!   totals → task **TPA** (polynomial-expression pipeline, §5.4).
//! * supporting `Account` and `Branch` tables (joins for multi-table
//!   rules; Branch provides the `city → area_code` master pairs).

use crate::inject::Injector;
use crate::namegen::{self, pick};
use crate::workload::{GenConfig, MlHint, Task, Workload};
use rock_data::{
    rng::StdRng, AttrId, AttrType, Database, DatabaseSchema, Eid, RelId, RelationSchema, Value,
};
use rock_kg::Graph;
use rock_ml::correlation::{CorrelationModel, ValuePredictor};
use rock_ml::pair::NgramPairModel;
use rock_ml::ModelRegistry;
use rock_rees::{parse_rules, RuleSet};
use std::sync::Arc;

/// Relation indices.
pub mod rels {
    pub const CUSTOMER: u16 = 0;
    pub const COMPANY: u16 = 1;
    pub const ACCOUNT: u16 = 2;
    pub const PAYMENT: u16 = 3;
    pub const BRANCH: u16 = 4;
}

/// Customer attribute indices.
pub mod cust {
    pub const CID: u16 = 0;
    pub const LAST_NAME: u16 = 1;
    pub const FIRST_NAME: u16 = 2;
    pub const PHONE: u16 = 3;
    pub const CITY: u16 = 4;
}

/// Company attribute indices.
pub mod comp {
    pub const COID: u16 = 0;
    pub const NAME: u16 = 1;
    pub const INDUSTRY: u16 = 2;
    pub const CITY: u16 = 3;
    pub const AREA_CODE: u16 = 4;
}

/// Payment attribute indices.
pub mod pay {
    pub const PID: u16 = 0;
    pub const AID: u16 = 1;
    pub const AMOUNT: u16 = 2;
    pub const FEE: u16 = 3;
    pub const TOTAL: u16 = 4;
}

const INDUSTRIES: &[&str] = &["finance", "retail", "manufacturing", "logistics", "energy"];

fn schema() -> DatabaseSchema {
    DatabaseSchema::new(vec![
        RelationSchema::of(
            "Customer",
            &[
                ("cid", AttrType::Str),
                ("last_name", AttrType::Str),
                ("first_name", AttrType::Str),
                ("phone", AttrType::Str),
                ("city", AttrType::Str),
            ],
        ),
        RelationSchema::of(
            "Company",
            &[
                ("coid", AttrType::Str),
                ("name", AttrType::Str),
                ("industry", AttrType::Str),
                ("city", AttrType::Str),
                ("area_code", AttrType::Str),
            ],
        ),
        RelationSchema::of(
            "Account",
            &[
                ("aid", AttrType::Str),
                ("cid", AttrType::Str),
                ("balance", AttrType::Float),
            ],
        ),
        RelationSchema::of(
            "Payment",
            &[
                ("pid", AttrType::Str),
                ("aid", AttrType::Str),
                ("amount", AttrType::Float),
                ("fee", AttrType::Float),
                ("total", AttrType::Float),
            ],
        ),
        RelationSchema::of(
            "Branch",
            &[
                ("bid", AttrType::Str),
                ("city", AttrType::Str),
                ("area_code", AttrType::Str),
            ],
        ),
    ])
}

/// Curated REE++s. Task tags: cnc_*, cic_*, tpa_* (TPA is mostly the
/// polynomial pipeline; the rule here catches nulls).
const RULES: &str = "\
rule cnc_er: Customer(t) && Customer(s) && t.cid = s.cid -> t.eid = s.eid
rule cnc_er_ml: Customer(t) && Customer(s) && ml:Mname(t[last_name,first_name], s[last_name,first_name]) && t.phone = s.phone -> t.eid = s.eid
rule cnc_ln: Customer(t) && Customer(s) && t.cid = s.cid -> t.last_name = s.last_name
rule cnc_fn: Customer(t) && Customer(s) && t.cid = s.cid -> t.first_name = s.first_name
rule cnc_cid: Customer(t) && Customer(s) && t.eid = s.eid -> t.cid = s.cid
rule cnc_phone_mi: Customer(t) && null(t.phone) -> t.phone = predict:Mphone(t[cid])
rule cic_er_ml: Company(t) && Company(s) && ml:Mcompany(t[name], s[name]) && t.industry = s.industry -> t.eid = s.eid
rule cic_industry: Company(t) && Company(s) && t.name = s.name -> t.industry = s.industry
rule cic_area: Company(t) && Branch(b) && t.city = b.city -> t.area_code = b.area_code
rule cic_city_mi: Company(t) && null(t.city) -> t.city = predict:Mcity(t[name,area_code])
rule tpa_null: Payment(t) && Payment(s) && t.aid = s.aid && t.amount = s.amount && t.fee = s.fee -> t.total = s.total
";

/// Generate the Bank workload.
pub fn generate(cfg: &GenConfig) -> Workload {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let schema = schema();
    let mut clean = Database::new(&schema);

    // Branch: master city → area_code pairs
    {
        let r = clean.relation_mut(RelId(rels::BRANCH));
        for (i, (city, code)) in namegen::CITIES.iter().enumerate() {
            r.insert(
                Eid(i as u32),
                vec![
                    Value::str(format!("B{i:02}")),
                    Value::str(*city),
                    Value::str(*code),
                ],
            )
            .expect("generated row matches schema arity");
        }
    }

    // Customers: 2–3 records per entity from different source systems
    let n_customers = cfg.rows / 3;
    {
        let r = clean.relation_mut(RelId(rels::CUSTOMER));
        for c in 0..n_customers {
            let cid = format!("C{c:05}");
            let ln = *pick(&mut rng, namegen::LAST_NAMES);
            let fn_ = *pick(&mut rng, namegen::FIRST_NAMES);
            let phone = format!("13{:09}", rng.gen_range(0..1_000_000_000u64));
            let (city, _) = *pick(&mut rng, namegen::CITIES);
            for _src in 0..rng.gen_range(3..=4usize) {
                r.insert(
                    Eid(c as u32),
                    vec![
                        Value::str(&cid),
                        Value::str(ln),
                        Value::str(fn_),
                        Value::str(&phone),
                        Value::str(city),
                    ],
                )
                .expect("generated row matches schema arity");
            }
        }
    }

    // Companies: 2 records per company entity
    let n_companies = (cfg.rows / 6).max(4);
    {
        let r = clean.relation_mut(RelId(rels::COMPANY));
        for c in 0..n_companies {
            let coid = format!("CO{c:04}");
            let name = namegen::unique_company(c);
            let industry = *pick(&mut rng, INDUSTRIES);
            let (city, code) = *pick(&mut rng, namegen::CITIES);
            for _ in 0..3 {
                r.insert(
                    Eid(c as u32),
                    vec![
                        Value::str(&coid),
                        Value::str(&name),
                        Value::str(industry),
                        Value::str(city),
                        Value::str(code),
                    ],
                )
                .expect("generated row matches schema arity");
            }
        }
    }

    // Accounts + Payments (total = amount + fee; payments come in batches
    // sharing (aid, amount, fee) so redundancy exists for tpa_null)
    let n_accounts = n_customers;
    {
        let r = clean.relation_mut(RelId(rels::ACCOUNT));
        for a in 0..n_accounts {
            r.insert(
                Eid(a as u32),
                vec![
                    Value::str(format!("A{a:05}")),
                    Value::str(format!("C{:05}", a % n_customers)),
                    Value::Float((rng.gen_range(10..100_000) as f64) / 10.0),
                ],
            )
            .expect("generated row matches schema arity");
        }
    }
    {
        let r = clean.relation_mut(RelId(rels::PAYMENT));
        let mut pid = 0usize;
        for batch in 0..(cfg.rows / 2) {
            let aid = format!("A{:05}", batch % n_accounts);
            let amount = (rng.gen_range(100..500_000) as f64) / 100.0;
            let fee = (amount * 0.01 * rng.gen_range(1..5) as f64 * 100.0).round() / 100.0;
            for _ in 0..3 {
                r.insert(
                    Eid(batch as u32),
                    vec![
                        Value::str(format!("P{pid:06}")),
                        Value::str(&aid),
                        Value::Float(amount),
                        Value::Float(fee),
                        Value::Float(amount + fee),
                    ],
                )
                .expect("generated row matches schema arity");
                pid += 1;
            }
        }
    }

    // inject
    let mut dirty = clean.clone();
    let mut inj = Injector::new(cfg.seed ^ 0xBA4C);
    let (cu, co, pa) = (
        RelId(rels::CUSTOMER),
        RelId(rels::COMPANY),
        RelId(rels::PAYMENT),
    );
    // CNC: name typos + duplicates with reformatting
    inj.corrupt_attr(&mut dirty, cu, AttrId(cust::LAST_NAME), cfg.error_rate);
    inj.corrupt_attr(
        &mut dirty,
        cu,
        AttrId(cust::FIRST_NAME),
        cfg.error_rate / 2.0,
    );
    let dups = inj.duplicate_tuples(
        &mut dirty,
        cu,
        cfg.error_rate / 2.0,
        &[AttrId(cust::LAST_NAME), AttrId(cust::FIRST_NAME)],
    );
    // Interaction chain (§4.2, Example 7): break the duplicates' cid join
    // key, then null the *original* records' phones for a slice of
    // customers — merging those duplicates now requires MI (fill phone) →
    // ER (ML name+phone match) → CR (repair cid from the merged entity),
    // which a single non-iterating pass cannot complete.
    inj.corrupt_cells(&mut dirty, cu, &dups, AttrId(cust::CID));
    {
        use rock_data::FxHashSet;
        let dup_set: FxHashSet<_> = dups.iter().copied().collect();
        let dup_sources: FxHashSet<rock_data::Eid> = inj
            .truth
            .duplicate_pairs
            .iter()
            .filter_map(|(orig, _)| dirty.relation(cu).get(orig.tid).map(|t| t.eid))
            .collect();
        let mut victims: Vec<rock_data::TupleId> = dirty
            .relation(cu)
            .iter()
            .filter(|t| dup_sources.contains(&t.eid) && !dup_set.contains(&t.tid))
            .map(|t| t.tid)
            .collect();
        victims.truncate(victims.len() / 2);
        inj.null_cells(&mut dirty, cu, &victims, AttrId(cust::PHONE));
    }
    // CIC: industry conflicts, city nulls, area-code conflicts
    let industry_pool: Vec<Value> = INDUSTRIES.iter().map(|i| Value::str(*i)).collect();
    inj.conflict_attr(
        &mut dirty,
        co,
        AttrId(comp::INDUSTRY),
        cfg.error_rate,
        &industry_pool,
    );
    inj.null_attr(&mut dirty, co, AttrId(comp::CITY), cfg.error_rate);
    let code_pool: Vec<Value> = namegen::CITIES
        .iter()
        .map(|(_, c)| Value::str(*c))
        .collect();
    inj.conflict_attr(
        &mut dirty,
        co,
        AttrId(comp::AREA_CODE),
        cfg.error_rate,
        &code_pool,
    );
    // TPA: corrupted + nulled totals
    inj.corrupt_attr(&mut dirty, pa, AttrId(pay::TOTAL), cfg.error_rate);
    inj.null_attr(&mut dirty, pa, AttrId(pay::TOTAL), cfg.error_rate / 2.0);
    let truth = inj.truth;

    // models
    let registry = Arc::new(ModelRegistry::new());
    registry.register_pair("Mname", Arc::new(NgramPairModel::with_threshold(0.75)));
    registry.register_pair("Mcompany", Arc::new(NgramPairModel::with_threshold(0.8)));
    // Mcity: (name, area_code) → city trained on clean company rows
    let rows: Vec<(Vec<Value>, Value)> = clean
        .relation(co)
        .iter()
        .map(|t| {
            (
                vec![
                    t.get(AttrId(comp::NAME)).clone(),
                    t.get(AttrId(comp::AREA_CODE)).clone(),
                ],
                t.get(AttrId(comp::CITY)).clone(),
            )
        })
        .collect();
    registry.register_predictor(
        "Mcity",
        Arc::new(ValuePredictor::new(CorrelationModel::train(&rows), 0.3)),
    );
    let phone_rows: Vec<(Vec<Value>, Value)> = clean
        .relation(cu)
        .iter()
        .map(|t| {
            (
                vec![t.get(AttrId(cust::CID)).clone()],
                t.get(AttrId(cust::PHONE)).clone(),
            )
        })
        .collect();
    registry.register_predictor(
        "Mphone",
        Arc::new(ValuePredictor::new(
            CorrelationModel::train(&phone_rows),
            0.3,
        )),
    );

    let mut rules = RuleSet::new(parse_rules(RULES, &dirty.schema()).expect("curated rules parse"));
    rules.resolve(&registry).expect("models registered");

    let task =
        |name: &str, prefixes: &[&str], scope: &[(u16, u16)], poly: Option<(u16, u16)>| -> Task {
            Task {
                name: name.into(),
                rule_names: rules
                    .iter()
                    .filter(|r| prefixes.iter().any(|p| r.name.starts_with(p)))
                    .map(|r| r.name.clone())
                    .collect(),
                scope: if scope.is_empty() {
                    None
                } else {
                    Some(Workload::scope_of(
                        &dirty,
                        &scope
                            .iter()
                            .map(|(r, a)| (RelId(*r), AttrId(*a)))
                            .collect::<Vec<_>>(),
                    ))
                },
                polynomial_target: poly.map(|(r, a)| (RelId(r), AttrId(a))),
            }
        };
    let tasks = vec![
        task(
            "CNC",
            &["cnc_"],
            &[
                (rels::CUSTOMER, cust::LAST_NAME),
                (rels::CUSTOMER, cust::FIRST_NAME),
                (rels::CUSTOMER, cust::CID),
                (rels::CUSTOMER, cust::PHONE),
            ],
            None,
        ),
        task(
            "CIC",
            &["cic_"],
            &[
                (rels::COMPANY, comp::INDUSTRY),
                (rels::COMPANY, comp::CITY),
                (rels::COMPANY, comp::AREA_CODE),
            ],
            None,
        ),
        task(
            "TPA",
            &["tpa_"],
            &[(rels::PAYMENT, pay::TOTAL)],
            Some((rels::PAYMENT, pay::TOTAL)),
        ),
        task(
            "ESClean",
            &["cnc_", "cic_", "tpa_"],
            &[],
            Some((rels::PAYMENT, pay::TOTAL)),
        ),
    ];

    let trusted = Workload::pick_trusted(&dirty, &truth, cfg.trusted_per_rel);

    Workload {
        name: "Bank".into(),
        clean,
        dirty,
        truth,
        graph: Some(company_graph(n_companies, cfg.seed)),
        registry,
        rules,
        tasks,
        trusted,
        ml_hints: vec![
            MlHint {
                model: "Mname".into(),
                rel: "Customer".into(),
                attrs: vec!["last_name".into(), "first_name".into()],
            },
            MlHint {
                model: "Mcompany".into(),
                rel: "Company".into(),
                attrs: vec!["name".into()],
            },
        ],
    }
}

fn company_graph(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0);
    let mut g = Graph::new("BankKG");
    for i in 0..n {
        let v = g.add_vertex(Value::str(format!("CO{i:04}")), "Company");
        let (city, code) = *pick(&mut rng, namegen::CITIES);
        let c = g.add_vertex(Value::str(city), "City");
        let a = g.add_vertex(Value::str(code), "AreaCode");
        g.add_edge(v, "LocationAt", c);
        g.add_edge(c, "AreaCode", a);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl() -> Workload {
        generate(&GenConfig {
            rows: 240,
            error_rate: 0.1,
            seed: 5,
            trusted_per_rel: 20,
        })
    }

    #[test]
    fn five_tables_generated() {
        let w = wl();
        assert_eq!(w.dirty.len(), 5);
        assert!(w.dirty.relation(RelId(rels::CUSTOMER)).len() > 100);
        assert!(w.dirty.relation(RelId(rels::PAYMENT)).len() > 100);
        assert_eq!(
            w.dirty.relation(RelId(rels::BRANCH)).len(),
            namegen::CITIES.len()
        );
    }

    #[test]
    fn payment_invariant_holds_on_clean() {
        let w = wl();
        for t in w.clean.relation(RelId(rels::PAYMENT)).iter() {
            let amount = t.get(AttrId(pay::AMOUNT)).as_f64().unwrap();
            let fee = t.get(AttrId(pay::FEE)).as_f64().unwrap();
            let total = t.get(AttrId(pay::TOTAL)).as_f64().unwrap();
            assert!((amount + fee - total).abs() < 1e-9);
        }
    }

    #[test]
    fn tasks_cover_tpa_polynomial() {
        let w = wl();
        let tpa = w.task("TPA").unwrap();
        assert_eq!(
            tpa.polynomial_target,
            Some((RelId(rels::PAYMENT), AttrId(pay::TOTAL)))
        );
        assert!(w.task("ESClean").unwrap().scope.is_none());
        assert_eq!(w.tasks.len(), 4);
    }

    #[test]
    fn rules_parse_resolve_validate() {
        let w = wl();
        let schema = w.dirty.schema();
        assert_eq!(w.rules.len(), 11);
        for r in w.rules.iter() {
            r.validate(&schema).unwrap();
        }
        // multi-table rule present (cic_area joins Company × Branch)
        let cic_area = w.rules.get("cic_area").unwrap();
        assert_ne!(cic_area.rel_of(0), cic_area.rel_of(1));
    }

    #[test]
    fn errors_span_all_three_tasks() {
        let w = wl();
        let cells = w.truth.error_cells();
        let has = |rel: u16| cells.iter().any(|c| c.rel == RelId(rel));
        assert!(has(rels::CUSTOMER));
        assert!(has(rels::COMPANY));
        assert!(has(rels::PAYMENT));
        assert!(!w.truth.duplicate_pairs.is_empty());
    }
}
