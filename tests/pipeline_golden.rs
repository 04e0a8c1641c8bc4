//! Experiments E2–E4: golden renderings of the three compilation stages
//! for the paper's running example, mirroring the three expressions shown
//! in Section 4 (steps 1–3).
//!
//! Notation mapping (ours → paper's):
//! `©(p:Post)` → `©(p:Post)`; `↑[...]` → `↑`; `⇑[...]` → `⇑`;
//! `⋈*` → `./∗`; `µ[c.lang]` → `µ c.lang→cL`;
//! `{lang→c.lang}` → `{lang→cL}`.

use pgq_algebra::pipeline::compile_query;
use pgq_parser::parse_query;
use pgq_workloads::EXAMPLE_QUERY;

fn compiled() -> pgq_algebra::CompiledQuery {
    compile_query(&parse_query(EXAMPLE_QUERY).unwrap()).unwrap()
}

#[test]
fn e2_gra_golden() {
    // Paper step 1: π_{p,t} σ_{c.lang=p.lang} ↑*(c:Comm)(p)[:REPLY] ©(p:Post)
    let got = compiled().gra.to_string();
    assert_eq!(
        got,
        "π[p, t] (σ[(p.lang = c.lang)] (↑[(p:Post)-[:REPLY*]->(c:Comm), t≪] \
         (ι[t = ⟨p⟩] (©(p:Post)))))"
    );
}

#[test]
fn e3_nra_golden() {
    // Paper step 2: expand replaced by transitive join with ⇑, property
    // accesses unnested with µ.
    let got = compiled().nra.to_string();
    assert_eq!(
        got,
        "π[p, t] (σ[(p.lang = c.lang)] (µ[c.lang] (µ[p.lang] ((ι[t = ⟨p⟩] (©(p:Post)) \
         ⋈*[t≪] ⇑[(p:Post)-[:REPLY*]->(c:Comm)])))))"
    );
}

#[test]
fn e4_fra_golden() {
    // Paper step 3: µ operators are gone; the required attributes are
    // pushed into © (lang→p.lang) and into the ⇑ destination
    // (lang→c.lang).
    let got = compiled().fra.explain();
    let expected = "\
π[p, t]
  σ[(p.lang = c.lang)]
    π[p, p.lang, t++_p1→t, c, c.lang]
      ⋈*1..[p →:REPLY (c:Comm {lang→c.lang}), path=_p1]
        π[p, p.lang, ⟨p⟩→t]
          ©(p:Post {lang→p.lang})
";
    assert_eq!(got, expected);
}

#[test]
fn e4_no_unnest_survives_flattening() {
    let cq = compiled();
    let rendered = cq.fra.explain();
    assert!(!rendered.contains('µ'));
    // And the inferred output schema is exactly the RETURN list.
    assert_eq!(cq.columns, vec!["p".to_string(), "t".to_string()]);
}
